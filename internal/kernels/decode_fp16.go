package kernels

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// FP16 (Turbo-TC) variants of the blocked decode-attention primitives. The
// KV context arrives as binary16 blocks (blas.Half), the query row is
// encoded through binary16 at the kernel boundary, and all accumulation
// stays fp32 — the tensor-core numerics of §6.2.1. Two fusions that the
// fp32 path runs as separate passes are folded in:
//
//   - the softmax scale rides in the QK GEMM's alpha (bit-identical: the NT
//     kernel applies alpha as the single per-element multiply either way),
//   - the softmax output is rounded to binary16 in the same pass that
//     normalises it (the cast a fused fp16 softmax kernel performs when it
//     writes probabilities into Tensor Core registers for scores·V).
//
// Each fp16 primitive is bit-identical to the per-row fp16 oracle in
// internal/model for the same reasons the fp32 grouped path matches its
// oracle: identical GEMM kernels, identical accumulation order, and
// decode∘encode == RoundF16 exactly.

func (ws *DecodeWorkspace) groupsF16For(n int) []blas.StridedBatchF16 {
	if cap(ws.groupsF16) < n {
		ws.groupsF16 = make([]blas.StridedBatchF16, n)
	}
	ws.groupsF16 = ws.groupsF16[:n]
	return ws.groupsF16
}

// releaseGroupsF16 drops KV/score references, mirroring releaseGroups.
func (ws *DecodeWorkspace) releaseGroupsF16() {
	for i := range ws.groupsF16 {
		ws.groupsF16[i] = blas.StridedBatchF16{}
	}
}

// encodeQ rounds the batch's query rows through binary16 into the reused
// ws.qh buffer.
func (ws *DecodeWorkspace) encodeQ(q []float32, n int) blas.Half {
	if cap(ws.qh) < n {
		ws.qh = make(blas.Half, n)
	}
	ws.qh = ws.qh[:n]
	tensor.EncodeF16Slice(ws.qh, q[:n])
	return ws.qh
}

// SoftmaxF16 softmaxes each already-scaled score row and rounds the
// probabilities through binary16 in the same pass — the fused
// softmax-and-cast that feeds scores·V's Tensor Core A operand. No scale
// parameter: ScoresBlockedF16 folded it into the GEMM.
func (ws *DecodeWorkspace) SoftmaxF16(scores []float32, ctxLens []int, heads int) {
	batch := len(ctxLens)
	if batch == 0 {
		return
	}
	checkLen("DecodeSoftmaxF16 scores", scores, decodeScoreFloats(ctxLens, heads))
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
			softmaxRow(row)
			tensor.RoundSliceF16(row)
		}
	})
}

// ScoresBlockedF16 computes SCALED single-query attention scores against
// paged binary16 keys: scores[i][h][t] = scale · (q̂_ih · keys[i][t]_h) with
// q̂ the binary16-rounded query, one group per (session, block). Unlike the
// fp32 ScoresBlocked, the softmax scale is fused into the GEMM's alpha — one
// launch instead of a GEMM plus a scaling sweep. Paging only partitions
// output columns, so each score element runs the same dot product whatever
// the block size.
func (ws *DecodeWorkspace) ScoresBlockedF16(q []float32, keyBlocks [][]blas.Half, ctxLens []int, blockTokens, heads, headDim int, scale float32, scores []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	if blockTokens < 1 {
		panic(fmt.Sprintf("kernels: non-positive block size %d", blockTokens))
	}
	hidden := heads * headDim
	checkLen("DecodeScoresBlockedF16 q", q, rows*hidden)
	checkLen("DecodeScoresBlockedF16 scores", scores, decodeScoreFloats(ctxLens, heads))
	total := 0
	for i, T := range ctxLens {
		checkBlockTable("DecodeScoresBlockedF16 keys", keyBlocks[i], T, blockTokens, hidden, i)
		total += numBlocks(T, blockTokens)
	}
	qh := ws.encodeQ(q, rows*hidden)
	groups := ws.groupsF16For(total)
	gi, off := 0, 0
	for i, T := range ctxLens {
		for b := 0; b < numBlocks(T, blockTokens); b++ {
			n := blockRows(T, blockTokens, b)
			groups[gi] = blas.StridedBatchF16{
				M: 1, N: n, K: headDim,
				A: qh[i*hidden:], Lda: headDim, StrideA: headDim,
				B: keyBlocks[i][b], Ldb: hidden, StrideB: headDim,
				C: scores[off+b*blockTokens:], Ldc: T, StrideC: T,
				Count: heads,
			}
			gi++
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemmF16(false, true, scale, 0, groups)
	ws.releaseGroupsF16()
}

// ContextBlockedF16 folds binary16-rounded probabilities back through paged
// binary16 values with fp32 accumulation — the AF mixed-operand form of the
// grouped fp16 GEMM (the probabilities stay in their fp32 buffer; they are
// binary16-valued after SoftmaxF16). Blocks apply in ascending rounds with
// beta=1 continuation, so accumulation order matches the single-block
// kernel bit for bit (same argument as the fp32 blocked path).
func (ws *DecodeWorkspace) ContextBlockedF16(scores []float32, valBlocks [][]blas.Half, ctxLens []int, blockTokens, heads, headDim int, ctx []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	if blockTokens < 1 {
		panic(fmt.Sprintf("kernels: non-positive block size %d", blockTokens))
	}
	hidden := heads * headDim
	checkLen("DecodeContextBlockedF16 ctx", ctx, rows*hidden)
	checkLen("DecodeContextBlockedF16 scores", scores, decodeScoreFloats(ctxLens, heads))
	maxBlocks := 0
	for i, T := range ctxLens {
		checkBlockTable("DecodeContextBlockedF16 vals", valBlocks[i], T, blockTokens, hidden, i)
		if nb := numBlocks(T, blockTokens); nb > maxBlocks {
			maxBlocks = nb
		}
	}
	offs := ws.offsFor(rows + 1)
	offs[0] = 0
	for i, T := range ctxLens {
		offs[i+1] = offs[i] + heads*T
	}
	for round := 0; round < maxBlocks; round++ {
		groups := ws.groupsF16For(0)
		for i, T := range ctxLens {
			if round >= numBlocks(T, blockTokens) {
				continue
			}
			n := blockRows(T, blockTokens, round)
			groups = append(groups, blas.StridedBatchF16{
				M: 1, N: headDim, K: n,
				AF: scores[offs[i]+round*blockTokens:], Lda: T, StrideA: T,
				B: valBlocks[i][round], Ldb: hidden, StrideB: headDim,
				C: ctx[i*hidden:], Ldc: headDim, StrideC: headDim,
				Count: heads,
			})
		}
		beta := float32(1)
		if round == 0 {
			beta = 0
		}
		blas.GroupedStridedBatchedGemmF16(false, false, 1, beta, groups)
		ws.groupsF16 = groups // keep the grown backing array for reuse
		ws.releaseGroupsF16()
	}
}

// AttentionBlockedF16 runs the full grouped fp16 decode attention over
// binary16 block tables: fused scaled-QK, fused softmax-and-cast, fp16
// context — three launches where the fp32 path takes four. Bit-identical
// for every block size over the same logical K/V rows.
func (ws *DecodeWorkspace) AttentionBlockedF16(q []float32, keyBlocks, valBlocks [][]blas.Half, ctxLens []int, blockTokens, heads, headDim int, scale float32, scores, ctx []float32) {
	if len(keyBlocks) != len(ctxLens) || len(valBlocks) != len(ctxLens) {
		panic(fmt.Sprintf("kernels: DecodeAttentionBlockedF16 %d sessions with %d/%d key/val tables",
			len(ctxLens), len(keyBlocks), len(valBlocks)))
	}
	ws.ScoresBlockedF16(q, keyBlocks, ctxLens, blockTokens, heads, headDim, scale, scores)
	ws.SoftmaxF16(scores, ctxLens, heads)
	ws.ContextBlockedF16(scores, valBlocks, ctxLens, blockTokens, heads, headDim, ctx)
}
