package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
)

// refDecodeAttention is an independent scalar implementation of ragged
// single-query attention (straight from the math, no blas), used as the
// numerical reference for the grouped kernels.
func refDecodeAttention(q []float32, keys, vals [][]float32, ctxLens []int, heads, headDim int, scale float32) []float32 {
	hidden := heads * headDim
	out := make([]float32, len(ctxLens)*hidden)
	for i, T := range ctxLens {
		for h := 0; h < heads; h++ {
			off := h * headDim
			scores := make([]float64, T)
			maxv := math.Inf(-1)
			for t := 0; t < T; t++ {
				var dot float64
				for d := 0; d < headDim; d++ {
					dot += float64(q[i*hidden+off+d]) * float64(keys[i][t*hidden+off+d])
				}
				scores[t] = dot * float64(scale)
				if scores[t] > maxv {
					maxv = scores[t]
				}
			}
			var sum float64
			for t := range scores {
				scores[t] = math.Exp(scores[t] - maxv)
				sum += scores[t]
			}
			for t := range scores {
				scores[t] /= sum
			}
			for d := 0; d < headDim; d++ {
				var acc float64
				for t := 0; t < T; t++ {
					acc += scores[t] * float64(vals[i][t*hidden+off+d])
				}
				out[i*hidden+off+d] = float32(acc)
			}
		}
	}
	return out
}

func randomDecodeBatch(rng *rand.Rand, rows, heads, headDim, maxCtx int) (q []float32, keys, vals [][]float32, ctxLens []int) {
	hidden := heads * headDim
	q = make([]float32, rows*hidden)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	for r := 0; r < rows; r++ {
		T := 1 + rng.Intn(maxCtx)
		k := make([]float32, T*hidden)
		v := make([]float32, T*hidden)
		for i := range k {
			k[i] = float32(rng.NormFloat64())
			v[i] = float32(rng.NormFloat64())
		}
		keys = append(keys, k)
		vals = append(vals, v)
		ctxLens = append(ctxLens, T)
	}
	return q, keys, vals, ctxLens
}

// oneBlock views each session's contiguous context as a one-block table —
// the layout cross-attention memory runs through the blocked kernels in.
func oneBlock[B any](ctx []B) [][]B {
	tables := make([][]B, len(ctx))
	for i := range ctx {
		tables[i] = ctx[i : i+1]
	}
	return tables
}

// maxLen is the block size that fits every context in one block.
func maxLen(lens []int) int {
	m := 0
	for _, n := range lens {
		m = max(m, n)
	}
	return m
}

// TestDecodeAttentionMatchesScalarReference checks the grouped path against
// the independent float64 reference on fuzzed ragged batches.
func TestDecodeAttentionMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		heads := 1 + rng.Intn(4)
		headDim := 1 + rng.Intn(8)
		rows := 1 + rng.Intn(6)
		q, keys, vals, lens := randomDecodeBatch(rng, rows, heads, headDim, 33)
		scale := float32(1 / math.Sqrt(float64(headDim)))

		hidden := heads * headDim
		scores := make([]float32, decodeScoreFloats(lens, heads))
		ctx := make([]float32, rows*hidden)
		var ws DecodeWorkspace
		ws.AttentionBlocked(q, oneBlock(keys), oneBlock(vals), lens, maxLen(lens), heads, headDim, scale, scores, ctx)

		want := refDecodeAttention(q, keys, vals, lens, heads, headDim, scale)
		for i := range want {
			if d := math.Abs(float64(ctx[i] - want[i])); d > 1e-4 {
				t.Fatalf("trial %d: ctx[%d] = %g, reference %g (|Δ|=%g)", trial, i, ctx[i], want[i], d)
			}
		}
	}
}

// TestDecodeAttentionBitIdenticalToPerRowGemm pins the bit-identity claim
// the generator's oracle rests on: the grouped call with one block per
// session must produce EXACTLY the floats a per-(session, head) blas.Gemm
// loop produces, because both dispatch the same GEMM kernel per problem.
func TestDecodeAttentionBitIdenticalToPerRowGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		heads := 1 + rng.Intn(4)
		headDim := 1 + rng.Intn(8)
		rows := 1 + rng.Intn(6)
		q, keys, vals, lens := randomDecodeBatch(rng, rows, heads, headDim, 40)
		scale := float32(1 / math.Sqrt(float64(headDim)))
		hidden := heads * headDim

		scores := make([]float32, decodeScoreFloats(lens, heads))
		got := make([]float32, rows*hidden)
		var ws DecodeWorkspace
		ws.AttentionBlocked(q, oneBlock(keys), oneBlock(vals), lens, maxLen(lens), heads, headDim, scale, scores, got)

		// Per-row oracle: one Gemm + softmax + Gemm per (session, head),
		// mirroring Decoder.attend.
		want := make([]float32, rows*hidden)
		for i, T := range lens {
			rowScores := make([]float32, T)
			for h := 0; h < heads; h++ {
				off := h * headDim
				blas.Gemm(false, true, 1, T, headDim, 1, q[i*hidden+off:i*hidden+off+headDim], headDim, keys[i][off:], hidden, 0, rowScores, T)
				for tIdx := range rowScores {
					rowScores[tIdx] *= scale
				}
				Softmax(rowScores, 1, T)
				blas.Gemm(false, false, 1, headDim, T, 1, rowScores, T, vals[i][off:], hidden, 0, want[i*hidden+off:i*hidden+off+headDim], headDim)
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ctx[%d] = %v, per-row %v — grouped path not bit-identical", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeScaledSoftmaxRowsNormalise: every ragged row sums to one over
// its own length.
func TestDecodeScaledSoftmaxRowsNormalise(t *testing.T) {
	lens := []int{3, 1, 7}
	const heads = 2
	scores := make([]float32, decodeScoreFloats(lens, heads))
	rng := rand.New(rand.NewSource(3))
	for i := range scores {
		scores[i] = float32(rng.NormFloat64()) * 4
	}
	var ws DecodeWorkspace
	ws.ScaledSoftmax(scores, lens, heads, 0.5)
	off := 0
	for s, n := range lens {
		for h := 0; h < heads; h++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += float64(scores[off+h*n+j])
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("session %d head %d: row sums to %g", s, h, sum)
			}
		}
		off += heads * n
	}
}

// TestDecodeAttentionRejectsBadShapes: zero-length contexts and mismatched
// gather lists are programming bugs and must panic.
func TestDecodeAttentionRejectsBadShapes(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	q := make([]float32, 4)
	kv := [][][]float32{{make([]float32, 4)}}
	var ws DecodeWorkspace
	expectPanic("zero context", func() {
		ws.AttentionBlocked(q, kv, kv, []int{0}, 1, 2, 2, 1, make([]float32, 4), make([]float32, 4))
	})
	expectPanic("mismatched gather", func() {
		ws.AttentionBlocked(q, kv, nil, []int{1}, 1, 2, 2, 1, make([]float32, 4), make([]float32, 4))
	})
	expectPanic("short scores", func() {
		ws.AttentionBlocked(q, kv, kv, []int{1}, 1, 2, 2, 1, make([]float32, 1), make([]float32, 4))
	})
	expectPanic("zero block size", func() {
		ws.AttentionBlocked(q, kv, kv, []int{1}, 0, 2, 2, 1, make([]float32, 4), make([]float32, 4))
	})
}
