package kernels

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// Grouped single-query (decode) attention primitives. One autoregressive
// decode iteration holds a batch of sessions, each contributing exactly one
// query row but attending over its own context — its private self-attention
// KV cache (length grows every step) or its own cross-attention memory
// (length fixed at the prompt). The batch is therefore ragged in the
// context dimension, and padding it to the longest context would reintroduce
// exactly the waste the packed encoder path removed.
//
// Instead, every session's per-head problems become groups of one
// blas.GroupedStridedBatchedGemm call (ragged m/n/k per group, like the
// packed encoder's attention), and the scaled softmax runs over the
// concatenated score rows. Every context is read through a block table
// (decode_blocked.go): session i's keys arrive as blocks of blockTokens
// [hidden] rows, and a context that fits one block is the contiguous case.
// Layouts:
//
//   - q:   [rows, hidden] — one query row per session, heads interleaved
//     along the row as usual (head h at columns [h*headDim, (h+1)*headDim));
//   - scores: session i's block starts at element heads*Σ_{j<i} ctxLens[j]
//     and is shaped [heads, ctxLens[i]] — no block is padded to a batch
//     maximum, mirroring the packed encoder's score layout at seqQ = 1.
//
// Because each (session, head) problem runs through the same GEMM kernel a
// per-session blas-backed reference uses, the grouped path is bit-identical
// to the per-row oracle — parallelism across the flattened (session, head)
// space changes wall-clock, never results.

// decodeScoreFloats returns the score-buffer length the batch needs.
func decodeScoreFloats(ctxLens []int, heads int) int {
	total := 0
	for i, n := range ctxLens {
		if n <= 0 {
			panic(fmt.Sprintf("kernels: decode session %d has non-positive context %d", i, n))
		}
		total += n
	}
	return heads * total
}

// DecodeWorkspace holds the grow-only group descriptors and offset tables
// the decode primitives build per call, so a decode loop that runs them
// every sub-layer of every iteration does not churn small allocations. The
// zero value is ready to use; a workspace must not be shared between
// concurrent calls.
type DecodeWorkspace struct {
	groups []blas.StridedBatch
	offs   []int

	// fp16-route scratch: grouped descriptors with binary16 operands and the
	// encoded query rows (the Tensor Core load conversion of q).
	groupsF16 []blas.StridedBatchF16
	qh        blas.Half
}

func (ws *DecodeWorkspace) groupsFor(n int) []blas.StridedBatch {
	if cap(ws.groups) < n {
		ws.groups = make([]blas.StridedBatch, n)
	}
	ws.groups = ws.groups[:n]
	return ws.groups
}

func (ws *DecodeWorkspace) offsFor(n int) []int {
	if cap(ws.offs) < n {
		ws.offs = make([]int, n)
	}
	ws.offs = ws.offs[:n]
	return ws.offs
}

// ScaledSoftmax is the packed scaled softmax over the concatenated decode
// score rows: every [1, ctxLens[i]] row (heads per session) is scaled then
// softmaxed over its own context length. As with the packed encoder softmax
// there is no mask parameter — padding never exists on this path.
func (ws *DecodeWorkspace) ScaledSoftmax(scores []float32, ctxLens []int, heads int, scale float32) {
	batch := len(ctxLens)
	if batch == 0 {
		return
	}
	checkLen("DecodeScaledSoftmax scores", scores, decodeScoreFloats(ctxLens, heads))
	// offs[i] = elements before session i's block (heads*ctx per session).
	offs := ws.offsFor(batch + 1)
	offs[0] = 0
	for i, n := range ctxLens {
		offs[i+1] = offs[i] + heads*n
	}
	parallel.For(batch*heads, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s := r / heads
			n := ctxLens[s]
			start := offs[s] + (r%heads)*n
			row := scores[start : start+n]
			for j := range row {
				row[j] *= scale
			}
			softmaxRow(row)
		}
	})
}

// releaseGroups drops the KV/score references captured in the group
// descriptors, so a workspace held by an idle decode loop does not pin
// closed sessions' cache arrays.
func (ws *DecodeWorkspace) releaseGroups() {
	for i := range ws.groups {
		ws.groups[i] = blas.StridedBatch{}
	}
}
