package kernels

import (
	"fmt"

	"repro/internal/blas"
)

// Block-table decode attention. A paged KV cache stores a session's
// context as fixed-size blocks of blockTokens rows rather than one
// contiguous [T, hidden] region, so the decode kernels read THROUGH the
// block table: session i's keys arrive as keyBlocks[i] — ceil(T/blockTokens)
// slices of [≤blockTokens, hidden] rows — and no gather copy ever
// materialises a contiguous layout. A context that fits one block (the
// cross-attention memory, passed with blockTokens = the batch's widest
// prompt) runs exactly one group per session, the contiguous kernel.
//
// Results do not depend on the block size, by construction rather than by
// tolerance:
//
//   - Scores (q·Kᵀ) reduces over headDim, which blocks never split — paging
//     only partitions the output columns, so every score element runs the
//     same dot product whatever the block size.
//   - Context (scores·V) reduces over the context length, which paging DOES
//     split — so blocks are applied in ascending rounds with beta=1
//     continuation, and the underlying gemmNN accumulates into C with one
//     multiply-add per element in strictly ascending k order. Round r
//     therefore resumes the exact FP accumulation sequence round r-1 left
//     off: the summation order is bit-for-bit the single-block kernel's.
//
// The softmax between them operates on the (always contiguous) score rows.

// blockRows returns the number of rows block b of a T-row context holds.
func blockRows(T, blockTokens, b int) int {
	rows := T - b*blockTokens
	if rows > blockTokens {
		rows = blockTokens
	}
	return rows
}

// numBlocks returns how many blocks cover T rows.
func numBlocks(T, blockTokens int) int {
	return (T + blockTokens - 1) / blockTokens
}

// checkBlockTable validates one session's block list (fp32 or binary16
// blocks) against its context length.
func checkBlockTable[B ~[]E, E any](name string, blocks []B, T, blockTokens, hidden, session int) {
	nb := numBlocks(T, blockTokens)
	if len(blocks) < nb {
		panic(fmt.Sprintf("kernels: %s session %d has %d blocks for %d rows (block %d)",
			name, session, len(blocks), T, blockTokens))
	}
	for b := 0; b < nb; b++ {
		if need := blockRows(T, blockTokens, b) * hidden; len(blocks[b]) < need {
			panic(fmt.Sprintf("kernels: %s session %d block %d has %d elements, need %d",
				name, session, b, len(blocks[b]), need))
		}
	}
}

// ScoresBlocked computes the raw decode attention scores with each
// session's keys paged into blockTokens-row blocks: one grouped GEMM call,
// one group per (session, block), each writing its own column span of the
// session's [heads, T] score region.
func (ws *DecodeWorkspace) ScoresBlocked(q []float32, keyBlocks [][][]float32, ctxLens []int, blockTokens, heads, headDim int, scores []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	if blockTokens < 1 {
		panic(fmt.Sprintf("kernels: non-positive block size %d", blockTokens))
	}
	hidden := heads * headDim
	checkLen("DecodeScoresBlocked q", q, rows*hidden)
	checkLen("DecodeScoresBlocked scores", scores, decodeScoreFloats(ctxLens, heads))
	total := 0
	for i, T := range ctxLens {
		checkBlockTable("DecodeScoresBlocked keys", keyBlocks[i], T, blockTokens, hidden, i)
		total += numBlocks(T, blockTokens)
	}
	groups := ws.groupsFor(total)
	gi, off := 0, 0
	for i, T := range ctxLens {
		for b := 0; b < numBlocks(T, blockTokens); b++ {
			n := blockRows(T, blockTokens, b)
			groups[gi] = blas.StridedBatch{
				M: 1, N: n, K: headDim,
				A: q[i*hidden:], Lda: headDim, StrideA: headDim,
				B: keyBlocks[i][b], Ldb: hidden, StrideB: headDim,
				C: scores[off+b*blockTokens:], Ldc: T, StrideC: T,
				Count: heads,
			}
			gi++
		}
		off += heads * T
	}
	blas.GroupedStridedBatchedGemm(false, true, 1, 0, groups)
	ws.releaseGroups()
}

// ContextBlocked folds the softmaxed scores back through each session's
// paged values. Blocks are applied in ascending rounds — round 0 with
// beta=0 (zeroing ctx), later rounds with beta=1 — so every (session,
// head) output accumulates its context in exactly the single-block
// kernel's ascending order (see the comment above for why that is
// bit-identical, not merely close).
func (ws *DecodeWorkspace) ContextBlocked(scores []float32, valBlocks [][][]float32, ctxLens []int, blockTokens, heads, headDim int, ctx []float32) {
	rows := len(ctxLens)
	if rows == 0 {
		return
	}
	if blockTokens < 1 {
		panic(fmt.Sprintf("kernels: non-positive block size %d", blockTokens))
	}
	hidden := heads * headDim
	checkLen("DecodeContextBlocked ctx", ctx, rows*hidden)
	checkLen("DecodeContextBlocked scores", scores, decodeScoreFloats(ctxLens, heads))
	maxBlocks := 0
	for i, T := range ctxLens {
		checkBlockTable("DecodeContextBlocked vals", valBlocks[i], T, blockTokens, hidden, i)
		if nb := numBlocks(T, blockTokens); nb > maxBlocks {
			maxBlocks = nb
		}
	}
	// offs[i] = element offset of session i's score region.
	offs := ws.offsFor(rows + 1)
	offs[0] = 0
	for i, T := range ctxLens {
		offs[i+1] = offs[i] + heads*T
	}
	for round := 0; round < maxBlocks; round++ {
		groups := ws.groupsFor(0)
		for i, T := range ctxLens {
			if round >= numBlocks(T, blockTokens) {
				continue
			}
			n := blockRows(T, blockTokens, round)
			groups = append(groups, blas.StridedBatch{
				M: 1, N: headDim, K: n,
				A: scores[offs[i]+round*blockTokens:], Lda: T, StrideA: T,
				B: valBlocks[i][round], Ldb: hidden, StrideB: headDim,
				C: ctx[i*hidden:], Ldc: headDim, StrideC: headDim,
				Count: heads,
			})
		}
		beta := float32(1)
		if round == 0 {
			beta = 0
		}
		blas.GroupedStridedBatchedGemm(false, false, 1, beta, groups)
		ws.groups = groups // keep the grown backing array for reuse
		ws.releaseGroups()
	}
}

// AttentionBlocked runs the full grouped decode attention over block
// tables: blocked scores, the packed scaled softmax, blocked context.
// scores is caller-provided scratch of at least heads*Σ ctxLens floats (its
// contents on return are the attention probabilities, useful for tests);
// ctx receives [rows, hidden]. The result is bit-identical for every block
// size over the same logical K/V rows.
func (ws *DecodeWorkspace) AttentionBlocked(q []float32, keyBlocks, valBlocks [][][]float32, ctxLens []int, blockTokens, heads, headDim int, scale float32, scores, ctx []float32) {
	if len(keyBlocks) != len(ctxLens) || len(valBlocks) != len(ctxLens) {
		panic(fmt.Sprintf("kernels: DecodeAttentionBlocked %d sessions with %d/%d key/val tables",
			len(ctxLens), len(keyBlocks), len(valBlocks)))
	}
	ws.ScoresBlocked(q, keyBlocks, ctxLens, blockTokens, heads, headDim, scores)
	ws.ScaledSoftmax(scores, ctxLens, heads, scale)
	ws.ContextBlocked(scores, valBlocks, ctxLens, blockTokens, heads, headDim, ctx)
}
