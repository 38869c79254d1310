package model

import (
	"math"

	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// FP16 decode support: the Turbo-TC route through the Seq2Seq decoder.
// Weights are rounded to binary16 once at enable time; activations round at
// every GEMM boundary (the Tensor Core load conversion); KV rows are stored
// as binary16 (see BlockKVCache half mode); accumulation and all reductions
// stay fp32. The per-row oracle below dispatches the exact GEMM kernel the
// grouped fp16 decode path (kernels.AttentionBlockedF16) runs per (session,
// head) problem, so the two routes are bit-identical by construction — the
// same contract the fp32 pair (attendBlocked / AttentionBlocked) keeps.

// EnableFP16 switches the decoder's generation route to binary16 storage
// with fp32 accumulation, pre-encoding every GEMM weight. Must be called
// before sessions are opened (existing fp32 KV caches are not converted).
// Idempotent.
func (d *Decoder) EnableFP16() {
	if d.fp16 {
		return
	}
	d.fp16 = true
	d.halfW = make(map[*tensor.Tensor]blas.Half)
	enc := func(w *tensor.Tensor) { d.halfW[w] = blas.EncodeHalf(w.Data()) }
	enc(d.Proj)
	for l := range d.layers {
		lw := &d.layers[l]
		for _, w := range []*tensor.Tensor{
			lw.selfWq, lw.selfWk, lw.selfWv, lw.selfWo,
			lw.crossWq, lw.crossWk, lw.crossWv, lw.crossWo,
			lw.ffnW1, lw.ffnW2,
		} {
			enc(w)
		}
	}
}

// FP16Enabled reports whether EnableFP16 was called.
func (d *Decoder) FP16Enabled() bool { return d.fp16 }

// elemBytes is the storage width of one KV element on the active route.
func (d *Decoder) elemBytes() int64 {
	if d.fp16 {
		return 2
	}
	return 4
}

// buildCrossCacheF16 is buildCrossCache on the fp16 route: the encoder
// memory and the K/V projection weights round through binary16 into the
// GEMM, and the projected rows are stored as binary16 — the cross memory is
// KV storage, so it halves along with the decode cache.
func (d *Decoder) buildCrossCacheF16(memory *tensor.Tensor) *crossCache {
	h := d.Cfg.Hidden
	srcLen := memory.Dim(0)
	cc := &crossCache{srcLen: srcLen, half: true}
	mh := blas.EncodeHalf(memory.Data())
	k := make([]float32, srcLen*h)
	v := make([]float32, srcLen*h)
	for l := range d.layers {
		lw := &d.layers[l]
		blas.GemmF16(false, false, srcLen, h, h, 1, mh, h, d.halfW[lw.crossWk], h, 0, k, h)
		kernels.AddBias(k, lw.crossBk.Data(), srcLen, h)
		blas.GemmF16(false, false, srcLen, h, h, 1, mh, h, d.halfW[lw.crossWv], h, 0, v, h)
		kernels.AddBias(v, lw.crossBv.Data(), srcLen, h)
		cc.kh = append(cc.kh, blas.EncodeHalf(k))
		cc.vh = append(cc.vh, blas.EncodeHalf(v))
	}
	return cc
}

// attendBlockedF16 is the per-row fp16 reference oracle for
// kernels.AttentionBlockedF16: single-query multi-head attention over
// binary16 K/V read through block tables, with the softmax scale folded
// into the score GEMM's alpha and the probabilities rounded through
// binary16 before the context product — exactly the fused-chain numerics
// the grouped kernel runs, one (session, head) problem at a time. Blocks
// are applied in ascending order with beta=1 continuation, the same
// accumulation order whatever the block size.
func (d *Decoder) attendBlockedF16(q []float32, keyBlocks, valBlocks []blas.Half, T, blockTok int, ctx []float32) {
	h, heads := d.Cfg.Hidden, d.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	qr := make([]float32, h)
	copy(qr, q)
	tensor.RoundSliceF16(qr)
	scores := make([]float32, T)
	for head := 0; head < heads; head++ {
		off := head * hd
		for b := 0; b*blockTok < T; b++ {
			n := T - b*blockTok
			if n > blockTok {
				n = blockTok
			}
			blas.GemmF16A32(false, true, 1, n, hd, scale, qr[off:off+hd], hd, keyBlocks[b][off:], h, 0, scores[b*blockTok:], n)
		}
		kernels.Softmax(scores, 1, T)
		tensor.RoundSliceF16(scores)
		for b := 0; b*blockTok < T; b++ {
			n := T - b*blockTok
			if n > blockTok {
				n = blockTok
			}
			beta := float32(1)
			if b == 0 {
				beta = 0
			}
			blas.GemmF16A32(false, false, 1, hd, n, 1, scores[b*blockTok:], n, valBlocks[b][off:], h, beta, ctx[off:off+hd], hd)
		}
	}
}
