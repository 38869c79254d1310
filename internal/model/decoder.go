package model

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Special token conventions used by the decoder.
const (
	TokPad = 0
	TokBos = 1
	TokEos = 2
)

// decoderLayerWeights holds one decoder layer's parameters: self-attention,
// encoder-decoder cross-attention, and the feed-forward block, each with a
// post-residual LayerNorm (the Transformer decoder of Fig. 1).
type decoderLayerWeights struct {
	selfWq, selfWk, selfWv, selfWo *tensor.Tensor
	selfBq, selfBk, selfBv, selfBo *tensor.Tensor
	selfLnG, selfLnB               *tensor.Tensor

	crossWq, crossWk, crossWv, crossWo *tensor.Tensor
	crossBq, crossBk, crossBv, crossBo *tensor.Tensor
	crossLnG, crossLnB                 *tensor.Tensor

	ffnW1, ffnB1, ffnW2, ffnB2 *tensor.Tensor
	ffnLnG, ffnLnB             *tensor.Tensor
}

// Decoder is the Seq2Seq decoder of Table 3: an incremental (KV-cached)
// transformer decoder with beam search, as used in the paper's
// Chinese→English translation workload.
type Decoder struct {
	Cfg    Config
	Embed  *Embedding
	Proj   *tensor.Tensor // [hidden, vocab] output projection
	layers []decoderLayerWeights

	// scr is the shared decode-iteration workspace (see decodescratch.go):
	// BeamSearch positions and Generator iterations draw activations,
	// scores, and logits from it instead of making fresh slices per token.
	// A standalone decoder accounts it on a private device; NewGenerator
	// rebinds it to the engine's shared device so decode activations appear
	// in the same MemoryStats as encoder activations and KV caches.
	scr *decodeScratch

	// fp16 fast path (EnableFP16): weights encoded to binary16 once, decode
	// GEMMs run fp16-storage/fp32-accumulate, KV caches store binary16.
	fp16  bool
	halfW map[*tensor.Tensor]blas.Half
}

// NewDecoder builds a decoder with deterministic random weights.
func NewDecoder(cfg Config, seed int64) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.IsDecoder {
		return nil, fmt.Errorf("model %s: NewDecoder needs a decoder config", cfg.Name)
	}
	h, inter, vocab := cfg.Hidden, cfg.Inter, cfg.Vocab
	d := &Decoder{
		Cfg:   cfg,
		Embed: NewEmbedding(cfg, seed),
		Proj:  tensor.RandN(seed+7, 0.05, h, vocab),
		scr:   newDecodeScratch(allocator.NewDevice()),
	}
	mat := func(s int64, r, c int) *tensor.Tensor { return tensor.RandN(s, 0.05, r, c) }
	vec := func(s int64, n int) *tensor.Tensor { return tensor.RandN(s, 0.02, n) }
	ones := func(s int64, n int) *tensor.Tensor { return tensor.RandUniform(s, 0.9, 1.1, n) }
	for l := 0; l < cfg.Layers; l++ {
		s := seed + int64(l)*100
		d.layers = append(d.layers, decoderLayerWeights{
			selfWq: mat(s+1, h, h), selfWk: mat(s+2, h, h), selfWv: mat(s+3, h, h), selfWo: mat(s+4, h, h),
			selfBq: vec(s+5, h), selfBk: vec(s+6, h), selfBv: vec(s+7, h), selfBo: vec(s+8, h),
			selfLnG: ones(s+9, h), selfLnB: vec(s+10, h),
			crossWq: mat(s+11, h, h), crossWk: mat(s+12, h, h), crossWv: mat(s+13, h, h), crossWo: mat(s+14, h, h),
			crossBq: vec(s+15, h), crossBk: vec(s+16, h), crossBv: vec(s+17, h), crossBo: vec(s+18, h),
			crossLnG: ones(s+19, h), crossLnB: vec(s+20, h),
			ffnW1: mat(s+21, h, inter), ffnB1: vec(s+22, inter),
			ffnW2: mat(s+23, inter, h), ffnB2: vec(s+24, h),
			ffnLnG: ones(s+25, h), ffnLnB: vec(s+26, h),
		})
	}
	return d, nil
}

// DecodeScratchBytes returns the decode workspace's current device
// footprint — the plan-reused buffer Generator.Step and stepAll draw
// activations from (tests use it to separate workspace bytes from KV).
func (d *Decoder) DecodeScratchBytes() int64 { return d.scr.bytes() }

// decodeState is the per-beam incremental state: self-attention KV cache per
// layer (rows of [hidden] appended per generated token).
type decodeState struct {
	selfK [][]float32 // [layer][t*hidden]
	selfV [][]float32
	toks  []int
	score float64
	done  bool
}

func (s *decodeState) clone(layers int) *decodeState {
	c := &decodeState{
		selfK: make([][]float32, layers),
		selfV: make([][]float32, layers),
		toks:  append([]int(nil), s.toks...),
		score: s.score,
		done:  s.done,
	}
	for l := 0; l < layers; l++ {
		c.selfK[l] = append([]float32(nil), s.selfK[l]...)
		c.selfV[l] = append([]float32(nil), s.selfV[l]...)
	}
	return c
}

// crossCache holds the per-layer projected encoder memory, shared by all
// beams (it depends only on the source sentence). In fp16 mode (half) the
// projections are stored as binary16 (kh/vh) and k/v stay nil — the cross
// memory is KV storage like the decode cache, so it halves with it.
type crossCache struct {
	k, v   [][]float32 // [layer][srcLen*hidden], fp32 mode
	kh, vh []blas.Half // [layer][srcLen*hidden], fp16 mode
	half   bool
	srcLen int
}

func (cc *crossCache) layers() int {
	if cc.half {
		return len(cc.kh)
	}
	return len(cc.k)
}

func (cc *crossCache) elemBytes() int64 {
	if cc.half {
		return 2
	}
	return 4
}

// newCrossCache builds the cross cache on the decoder's active numeric
// route (fp32, or binary16 after EnableFP16).
func (d *Decoder) newCrossCache(memory *tensor.Tensor) *crossCache {
	if d.fp16 {
		return d.buildCrossCacheF16(memory)
	}
	return d.buildCrossCache(memory)
}

// buildCrossCache projects the encoder memory through every layer's
// cross-attention K/V weights once per Decode call.
func (d *Decoder) buildCrossCache(memory *tensor.Tensor) *crossCache {
	h := d.Cfg.Hidden
	srcLen := memory.Dim(0)
	cc := &crossCache{srcLen: srcLen}
	for l := range d.layers {
		lw := &d.layers[l]
		k := make([]float32, srcLen*h)
		v := make([]float32, srcLen*h)
		blas.Gemm(false, false, srcLen, h, h, 1, memory.Data(), h, lw.crossWk.Data(), h, 0, k, h)
		kernels.AddBias(k, lw.crossBk.Data(), srcLen, h)
		blas.Gemm(false, false, srcLen, h, h, 1, memory.Data(), h, lw.crossWv.Data(), h, 0, v, h)
		kernels.AddBias(v, lw.crossBv.Data(), srcLen, h)
		cc.k = append(cc.k, k)
		cc.v = append(cc.v, v)
	}
	return cc
}

// attend computes single-query multi-head attention for one beam: q
// [hidden] against keys/vals [T, hidden], writing ctx [hidden]. Each
// head's score and context products go through the same blas GEMM kernel
// the grouped decode path dispatches per (session, head) problem, so a
// beam's numerics match a generation session's exactly.
func (d *Decoder) attend(q, keys, vals []float32, T int, ctx []float32) {
	h, heads := d.Cfg.Hidden, d.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	scores := make([]float32, T)
	for head := 0; head < heads; head++ {
		off := head * hd
		blas.Gemm(false, true, 1, T, hd, 1, q[off:off+hd], hd, keys[off:], h, 0, scores, T)
		for t := range scores {
			scores[t] *= scale
		}
		kernels.Softmax(scores, 1, T)
		blas.Gemm(false, false, 1, hd, T, 1, scores, T, vals[off:], h, 0, ctx[off:off+hd], hd)
	}
}

// attendBlocked is attend reading K/V through block tables — the per-row
// reference oracle for kernels.AttentionBlocked. Scores only partition the
// output columns per block; the context product applies the blocks in
// ascending order with beta=1 continuation, resuming the same ascending
// floating-point accumulation a single-block GEMM runs — so the result is
// bit-identical to attend over the same logical rows, whatever the block
// size.
func (d *Decoder) attendBlocked(q []float32, keyBlocks, valBlocks [][]float32, T, blockTok int, ctx []float32) {
	h, heads := d.Cfg.Hidden, d.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	scores := make([]float32, T)
	for head := 0; head < heads; head++ {
		off := head * hd
		for b := 0; b*blockTok < T; b++ {
			n := T - b*blockTok
			if n > blockTok {
				n = blockTok
			}
			blas.Gemm(false, true, 1, n, hd, 1, q[off:off+hd], hd, keyBlocks[b][off:], h, 0, scores[b*blockTok:], n)
		}
		for t := range scores {
			scores[t] *= scale
		}
		kernels.Softmax(scores, 1, T)
		for b := 0; b*blockTok < T; b++ {
			n := T - b*blockTok
			if n > blockTok {
				n = blockTok
			}
			beta := float32(1)
			if b == 0 {
				beta = 0
			}
			blas.Gemm(false, false, 1, hd, n, 1, scores[b*blockTok:], n, valBlocks[b][off:], h, beta, ctx[off:off+hd], hd)
		}
	}
}

// linear computes y = x·W + b for a single row.
func linear(x []float32, w *tensor.Tensor, b *tensor.Tensor, y []float32) {
	k, n := w.Dim(0), w.Dim(1)
	blas.Gemm(false, false, 1, n, k, 1, x, k, w.Data(), n, 0, y, n)
	if b != nil {
		kernels.AddBias(y, b.Data(), 1, n)
	}
}

// step advances one beam by one token: embeds tok at position pos, runs all
// decoder layers updating the beam's KV cache, and returns the vocab logits.
func (d *Decoder) step(st *decodeState, cc *crossCache, tok, pos int) []float32 {
	h := d.Cfg.Hidden
	x := make([]float32, h)
	copy(x, d.Embed.Word.Data()[tok*h:(tok+1)*h])
	pe := make([]float32, h)
	positionEncoding(pos, h, pe)
	for i := range x {
		x[i] += pe[i]
	}
	kernels.LayerNorm(x, d.Embed.Gamma.Data(), d.Embed.Beta.Data(), 1, h, 1e-5)

	q := make([]float32, h)
	kNew := make([]float32, h)
	vNew := make([]float32, h)
	ctx := make([]float32, h)
	proj := make([]float32, h)

	for l := range d.layers {
		lw := &d.layers[l]

		// Masked self-attention over the cache (causality is implicit:
		// the cache only holds past positions).
		linear(x, lw.selfWq, lw.selfBq, q)
		linear(x, lw.selfWk, lw.selfBk, kNew)
		linear(x, lw.selfWv, lw.selfBv, vNew)
		st.selfK[l] = append(st.selfK[l], kNew...)
		st.selfV[l] = append(st.selfV[l], vNew...)
		T := len(st.selfK[l]) / h
		d.attend(q, st.selfK[l], st.selfV[l], T, ctx)
		linear(ctx, lw.selfWo, lw.selfBo, proj)
		for i := range x {
			x[i] += proj[i]
		}
		kernels.LayerNorm(x, lw.selfLnG.Data(), lw.selfLnB.Data(), 1, h, 1e-5)

		// Cross-attention over the encoder memory.
		linear(x, lw.crossWq, lw.crossBq, q)
		d.attend(q, cc.k[l], cc.v[l], cc.srcLen, ctx)
		linear(ctx, lw.crossWo, lw.crossBo, proj)
		for i := range x {
			x[i] += proj[i]
		}
		kernels.LayerNorm(x, lw.crossLnG.Data(), lw.crossLnB.Data(), 1, h, 1e-5)

		// Feed-forward network.
		inter := make([]float32, d.Cfg.Inter)
		linear(x, lw.ffnW1, lw.ffnB1, inter)
		kernels.Act(d.Cfg.Act, inter)
		linear(inter, lw.ffnW2, lw.ffnB2, proj)
		for i := range x {
			x[i] += proj[i]
		}
		kernels.LayerNorm(x, lw.ffnLnG.Data(), lw.ffnLnB.Data(), 1, h, 1e-5)
	}

	logits := make([]float32, d.Cfg.Vocab)
	blas.Gemm(false, false, 1, d.Cfg.Vocab, h, 1, x, h, d.Proj.Data(), d.Cfg.Vocab, 0, logits, d.Cfg.Vocab)
	return logits
}

// logSoftmax converts logits to log-probabilities in place.
func logSoftmax(logits []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	lse := float32(math.Log(sum)) + maxv
	for i := range logits {
		logits[i] -= lse
	}
}

// Hypothesis is one finished beam.
type Hypothesis struct {
	Tokens []int   // generated tokens, excluding BOS, including EOS if hit
	Score  float64 // length-normalised log-probability
}

// lengthPenalty is GNMT's normalisation with α = 0.6.
func lengthPenalty(length int) float64 {
	return math.Pow((5+float64(length))/6, 0.6)
}

// BeamSearch decodes from encoder memory [srcLen, hidden] with the
// configured beam size, up to maxLen tokens. It returns hypotheses sorted
// best-first.
func (d *Decoder) BeamSearch(memory *tensor.Tensor, maxLen int) ([]Hypothesis, error) {
	if memory.Rank() != 2 || memory.Dim(1) != d.Cfg.Hidden {
		return nil, fmt.Errorf("model %s: memory shape %v, want [srcLen, %d]",
			d.Cfg.Name, memory.Shape(), d.Cfg.Hidden)
	}
	if maxLen <= 0 || maxLen > d.Cfg.MaxTargetLen {
		maxLen = d.Cfg.MaxTargetLen
	}
	beamSize := d.Cfg.BeamSize
	cc := d.buildCrossCache(memory)
	layers := d.Cfg.Layers

	// Hold the decode workspace for the whole search: every position reuses
	// its buffers and consumes the logits views in place, so concurrent
	// BeamSearch (or Translator.Translate) calls on one decoder serialise
	// here instead of racing on the shared scratch.
	d.scr.mu.Lock()
	defer d.scr.mu.Unlock()

	start := &decodeState{
		selfK: make([][]float32, layers),
		selfV: make([][]float32, layers),
	}
	beams := []*decodeState{start}
	var finished []Hypothesis

	for pos := 0; pos < maxLen; pos++ {
		type cand struct {
			parent int
			tok    int
			score  float64
		}
		var cands []cand
		// Advance every beam together: one batched forward per position.
		toks := make([]int, len(beams))
		for bi, st := range beams {
			toks[bi] = TokBos
			if len(st.toks) > 0 {
				toks[bi] = st.toks[len(st.toks)-1]
			}
		}
		logitsAll := d.stepAllLocked(beams, cc, toks, pos)
		for bi, st := range beams {
			logits := logitsAll[bi]
			logSoftmax(logits)
			// Keep the top beamSize expansions of this beam.
			top := topK(logits, beamSize)
			for _, t := range top {
				cands = append(cands, cand{parent: bi, tok: t, score: st.score + float64(logits[t])})
			}
		}
		// Select the best beamSize candidates overall (ties broken by
		// parent/token for determinism).
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			if cands[i].parent != cands[j].parent {
				return cands[i].parent < cands[j].parent
			}
			return cands[i].tok < cands[j].tok
		})
		if len(cands) > beamSize {
			cands = cands[:beamSize]
		}
		var next []*decodeState
		for _, c := range cands {
			st := beams[c.parent].clone(layers)
			st.toks = append(st.toks, c.tok)
			st.score = c.score
			if c.tok == TokEos {
				finished = append(finished, Hypothesis{
					Tokens: append([]int(nil), st.toks...),
					Score:  c.score / lengthPenalty(len(st.toks)),
				})
				continue
			}
			next = append(next, st)
		}
		if len(next) == 0 {
			break
		}
		beams = next
	}
	// Unfinished beams count as hypotheses too.
	for _, st := range beams {
		finished = append(finished, Hypothesis{
			Tokens: append([]int(nil), st.toks...),
			Score:  st.score / lengthPenalty(len(st.toks)),
		})
	}
	sort.SliceStable(finished, func(i, j int) bool { return finished[i].Score > finished[j].Score })
	if len(finished) > beamSize {
		finished = finished[:beamSize]
	}
	return finished, nil
}

// Greedy decodes with beam size 1 (convenience for tests/examples).
func (d *Decoder) Greedy(memory *tensor.Tensor, maxLen int) (Hypothesis, error) {
	save := d.Cfg.BeamSize
	d.Cfg.BeamSize = 1
	defer func() { d.Cfg.BeamSize = save }()
	hyps, err := d.BeamSearch(memory, maxLen)
	if err != nil {
		return Hypothesis{}, err
	}
	return hyps[0], nil
}

// topK returns the indices of the k largest values.
func topK(vals []float32, k int) []int {
	if k > len(vals) {
		k = len(vals)
	}
	idx := make([]int, 0, k)
	for i := 0; i < k; i++ {
		best := -1
		for j, v := range vals {
			taken := false
			for _, u := range idx {
				if u == j {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if best < 0 || v > vals[best] {
				best = j
			}
		}
		idx = append(idx, best)
	}
	return idx
}
