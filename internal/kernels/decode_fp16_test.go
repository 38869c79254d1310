package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/tensor"
)

func randVec(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
	return s
}

func toHalf(src []float32) blas.Half {
	h := make(blas.Half, len(src))
	tensor.EncodeF16Slice(h, src)
	return h
}

// perRowF16Attention is the scalar-per-row fp16 oracle: for each session and
// head, a rounded-q dot binary16-K GEMM with the scale in alpha, softmax,
// binary16 rounding of the probabilities, then probs dot binary16-V.
func perRowF16Attention(q []float32, keys, vals []blas.Half, ctxLens []int, heads, headDim int, scale float32) []float32 {
	hidden := heads * headDim
	ctx := make([]float32, len(ctxLens)*hidden)
	for i, T := range ctxLens {
		qr := append([]float32(nil), q[i*hidden:(i+1)*hidden]...)
		tensor.RoundSliceF16(qr)
		for h := 0; h < heads; h++ {
			off := h * headDim
			scores := make([]float32, T)
			blas.GemmF16A32(false, true, 1, T, headDim, scale, qr[off:off+headDim], headDim, keys[i][off:], hidden, 0, scores, T)
			Softmax(scores, 1, T)
			tensor.RoundSliceF16(scores)
			blas.GemmF16A32(false, false, 1, headDim, T, 1, scores, T, vals[i][off:], hidden, 0, ctx[i*hidden+off:i*hidden+off+headDim], headDim)
		}
	}
	return ctx
}

// TestDecodeAttentionF16MatchesPerRowOracle pins the grouped fp16 decode
// attention, one block per session, bit-identical to the per-row fp16
// oracle on a ragged batch.
func TestDecodeAttentionF16MatchesPerRowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const heads, headDim = 4, 8
	hidden := heads * headDim
	ctxLens := []int{17, 3, 64, 1, 40}
	rows := len(ctxLens)
	scale := float32(1 / math.Sqrt(headDim))

	q := randVec(r, rows*hidden)
	keys := make([]blas.Half, rows)
	vals := make([]blas.Half, rows)
	for i, T := range ctxLens {
		keys[i] = toHalf(randVec(r, T*hidden))
		vals[i] = toHalf(randVec(r, T*hidden))
	}
	want := perRowF16Attention(q, keys, vals, ctxLens, heads, headDim, scale)

	scores := make([]float32, decodeScoreFloats(ctxLens, heads))
	got := make([]float32, rows*hidden)
	var ws DecodeWorkspace
	ws.AttentionBlockedF16(q, oneBlock(keys), oneBlock(vals), ctxLens, maxLen(ctxLens), heads, headDim, scale, scores, got)

	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("grouped fp16 diverges from per-row oracle at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestDecodeAttentionBlockedF16MatchesContiguous pins the paged fp16 path
// bit-identical to the contiguous layout — one block per session — over
// the same logical rows, including partial tail blocks.
func TestDecodeAttentionBlockedF16MatchesContiguous(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const heads, headDim, blockTok = 3, 8, 16
	hidden := heads * headDim
	ctxLens := []int{16, 5, 33, 48, 1}
	rows := len(ctxLens)
	scale := float32(1 / math.Sqrt(headDim))

	q := randVec(r, rows*hidden)
	keys := make([]blas.Half, rows)
	vals := make([]blas.Half, rows)
	keyBlocks := make([][]blas.Half, rows)
	valBlocks := make([][]blas.Half, rows)
	for i, T := range ctxLens {
		keys[i] = toHalf(randVec(r, T*hidden))
		vals[i] = toHalf(randVec(r, T*hidden))
		for b := 0; b < numBlocks(T, blockTok); b++ {
			n := blockRows(T, blockTok, b)
			// Oversized backing (full blocks) with only n rows meaningful,
			// as a real block pool hands out.
			kb := make(blas.Half, blockTok*hidden)
			vb := make(blas.Half, blockTok*hidden)
			copy(kb, keys[i][b*blockTok*hidden:b*blockTok*hidden+n*hidden])
			copy(vb, vals[i][b*blockTok*hidden:b*blockTok*hidden+n*hidden])
			keyBlocks[i] = append(keyBlocks[i], kb)
			valBlocks[i] = append(valBlocks[i], vb)
		}
	}

	scoreN := decodeScoreFloats(ctxLens, heads)
	want := make([]float32, rows*hidden)
	var ws1 DecodeWorkspace
	ws1.AttentionBlockedF16(q, oneBlock(keys), oneBlock(vals), ctxLens, maxLen(ctxLens), heads, headDim, scale, make([]float32, scoreN), want)

	got := make([]float32, rows*hidden)
	var ws2 DecodeWorkspace
	ws2.AttentionBlockedF16(q, keyBlocks, valBlocks, ctxLens, blockTok, heads, headDim, scale, make([]float32, scoreN), got)

	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("blocked fp16 diverges from contiguous at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestDecodeAttentionF16ToleranceVsFP32 bounds the fp16 route's deviation
// from the fp32 route — the kernel-level tolerance oracle. With normally
// distributed inputs and softmax-normalised probabilities the observed max
// relative error sits well below 1e-2; the documented bound is 2e-2.
func TestDecodeAttentionF16ToleranceVsFP32(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const heads, headDim = 4, 16
	hidden := heads * headDim
	ctxLens := []int{25, 7, 80}
	rows := len(ctxLens)
	scale := float32(1 / math.Sqrt(headDim))

	q := randVec(r, rows*hidden)
	keysF := make([][]float32, rows)
	valsF := make([][]float32, rows)
	keys := make([]blas.Half, rows)
	vals := make([]blas.Half, rows)
	for i, T := range ctxLens {
		keysF[i] = randVec(r, T*hidden)
		valsF[i] = randVec(r, T*hidden)
		keys[i] = toHalf(keysF[i])
		vals[i] = toHalf(valsF[i])
	}

	scoreN := decodeScoreFloats(ctxLens, heads)
	ref := make([]float32, rows*hidden)
	var ws1 DecodeWorkspace
	ws1.AttentionBlocked(q, oneBlock(keysF), oneBlock(valsF), ctxLens, maxLen(ctxLens), heads, headDim, scale, make([]float32, scoreN), ref)

	got := make([]float32, rows*hidden)
	var ws2 DecodeWorkspace
	ws2.AttentionBlockedF16(q, oneBlock(keys), oneBlock(vals), ctxLens, maxLen(ctxLens), heads, headDim, scale, make([]float32, scoreN), got)

	maxRel := 0.0
	for i := range got {
		rel := math.Abs(float64(got[i])-float64(ref[i])) / (math.Abs(float64(ref[i])) + 1e-3)
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 2e-2 {
		t.Fatalf("fp16 decode attention max relative error %.4g exceeds 2e-2", maxRel)
	}
	if maxRel == 0 {
		t.Fatal("fp16 route suspiciously bit-identical to fp32 — rounding not applied?")
	}
}
