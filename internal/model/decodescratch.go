package model

import (
	"sync"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/kernels"
)

// decodeScratchRowChunk is the row-capacity planning granularity of the
// decode workspace (batch slots); the score region's context capacity
// follows roundUpTokens (1.2× headroom, chunk-rounded), so a plan survives
// many iterations of steady context growth instead of reallocating every
// step.
const decodeScratchRowChunk = 4

// kvGrowthNum/kvGrowthDen mirror the allocator's K_SCALE = 1.2: when the
// score region must grow, reserve 20% headroom past the requested context
// so steady token-by-token growth does not replan at every chunk boundary.
// Integer math keeps the policy exact (and overflow-checkable) at any size.
const (
	kvGrowthNum = 6
	kvGrowthDen = 5
)

// maxKVTokens bounds a context capacity: token arithmetic is int while
// device budgets are int64 bytes, so adversarially large counts clamp
// instead of overflowing.
const maxKVTokens = 1 << 40

// roundUpTokens applies the growth policy: headroom-scaled and rounded to
// the KVChunkTokens granularity, clamped so the result never exceeds
// maxKVTokens (token counts near the cap skip the headroom rather than
// overflow).
func roundUpTokens(need int) int {
	if need < 1 {
		need = 1
	}
	if need > maxKVTokens {
		return need // never scale past the cap
	}
	scaled := need / kvGrowthDen * kvGrowthNum
	if rem := need % kvGrowthDen; rem > 0 {
		scaled += rem * kvGrowthNum / kvGrowthDen
	}
	if scaled > maxKVTokens {
		scaled = maxKVTokens
	}
	return (scaled + KVChunkTokens - 1) / KVChunkTokens * KVChunkTokens
}

// decodeScratch is the decode-iteration workspace shared by Generator.Step
// and Decoder.stepAll: activations, attention scores, and logits for one
// ragged decode iteration, carved out of a single device-accounted buffer.
// Like the encoder's activation arena, the plan is keyed on the iteration
// shape — (rows, Σcontext) — and reused as long as the request fits, so
// decode activations show up in MemoryStats (and its reallocation traffic
// in the Malloc/Free counters) exactly like encoder activations do, and the
// decode loop stops allocating per-token activation buffers (a few small
// descriptor/score-row allocations remain on the oracle and blas paths).
//
// The mutex serialises the decode paths sharing the workspace (Generator
// iterations and BeamSearch positions on the same decoder); buffers handed
// out by plan() are valid until the next plan() call.
type decodeScratch struct {
	mu  sync.Mutex
	dev *allocator.Device
	buf *allocator.Buffer

	planRows int // row capacity of the current plan
	planCtx  int // Σcontext capacity of the score region

	// Regions of buf, carved at plan capacity; callers slice to their rows.
	x, q, k, v, ctx, proj []float32 // [planRows, hidden] each
	inter                 []float32 // [planRows, inter]
	logits                []float32 // [planRows, vocab]
	scores                []float32 // [heads, planCtx] concatenated ragged rows
	pe                    []float32 // [hidden] position-encoding row

	// Per-session K/V block tables for the grouped attention call, on the
	// fp32 and binary16 routes (pointers into pool blocks and cross memory,
	// not device data) — reused across steps and cleared at the end of
	// every iteration so an idle generator does not pin closed sessions'
	// blocks. xh is the activation-encode scratch the batched fp16
	// projections round through.
	single blockTables[[]float32]
	half   blockTables[blas.Half]
	xh     blas.Half

	// ws caches the grouped-GEMM descriptors the decode kernels build.
	ws kernels.DecodeWorkspace
}

func newDecodeScratch(dev *allocator.Device) *decodeScratch {
	if dev == nil {
		dev = allocator.NewDevice()
	}
	return &decodeScratch{dev: dev}
}

// roundUpChunk rounds n up to the chunk granularity.
func roundUpChunk(n, chunk int) int {
	if n < 1 {
		n = 1
	}
	return (n + chunk - 1) / chunk * chunk
}

// plan ensures the workspace covers a decode iteration of `rows` sessions
// whose attention score rows span at most sumCtx context tokens, replanning
// (one device Free+Malloc, visible in the traffic counters) only when the
// key outgrows the current plan. Must be called with mu held.
func (s *decodeScratch) plan(cfg *Config, rows, sumCtx int) {
	if s.buf != nil && rows <= s.planRows && sumCtx <= s.planCtx {
		return
	}
	pr := roundUpChunk(rows, decodeScratchRowChunk)
	// Headroom past the requested Σcontext: self-attention context grows by
	// `rows` tokens per iteration, so the growth policy (20% slack,
	// chunk-rounded) keeps replans logarithmically spaced.
	pc := roundUpTokens(sumCtx)
	if pr < s.planRows {
		pr = s.planRows
	}
	if pc < s.planCtx {
		pc = s.planCtx
	}
	h, inter, vocab, heads := cfg.Hidden, cfg.Inter, cfg.Vocab, cfg.Heads
	floats := pr*h*6 + pr*inter + pr*vocab + heads*pc + h
	if s.buf != nil {
		s.dev.Free(s.buf)
	}
	s.buf = s.dev.Malloc(int64(floats) * 4)
	data := s.buf.Data()
	carve := func(n int) []float32 {
		out := data[:n]
		data = data[n:]
		return out
	}
	s.x, s.q, s.k, s.v = carve(pr*h), carve(pr*h), carve(pr*h), carve(pr*h)
	s.ctx, s.proj = carve(pr*h), carve(pr*h)
	s.inter = carve(pr * inter)
	s.logits = carve(pr * vocab)
	s.scores = carve(heads * pc)
	s.pe = carve(h)
	s.planRows, s.planCtx = pr, pc
}

// bytes returns the workspace's current device footprint.
func (s *decodeScratch) bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		return 0
	}
	return s.buf.Size
}

// halfIn returns the activation-encode scratch sized for n elements,
// growing it as needed. Must be called with mu held; the slice is valid
// until the next halfIn call.
func (s *decodeScratch) halfIn(n int) blas.Half {
	if cap(s.xh) < n {
		s.xh = make(blas.Half, n)
	}
	return s.xh[:n]
}

// clearGather drops the KV references collected during an iteration.
// Called with mu held.
func (s *decodeScratch) clearGather() {
	s.single.reset()
	s.half.reset()
}

// blockTables holds one attention sub-layer's per-session K/V block lists
// in the layout the blocked kernels read: k and v carry every session's
// blocks back to back (session i's end at ends[i]), kb/vb slice them per
// session, and lens holds each session's context rows.
type blockTables[B any] struct {
	k, v   []B
	ends   []int
	kb, vb [][]B
	lens   []int
}

// reset empties the tables, dropping every reference (truncating alone
// would leave stale slice headers alive in the backing arrays, keeping
// freed sessions' K/V storage reachable).
func (t *blockTables[B]) reset() {
	clear(t.k[:cap(t.k)])
	clear(t.v[:cap(t.v)])
	clear(t.kb[:cap(t.kb)])
	clear(t.vb[:cap(t.vb)])
	t.k, t.v, t.kb, t.vb = t.k[:0], t.v[:0], t.kb[:0], t.vb[:0]
	t.ends, t.lens = t.ends[:0], t.lens[:0]
}

// gather refills the tables with layer l's blocks for every session: its
// self-attention cache through kBlocks/vBlocks (covering the row appended
// this step), or — when cross — its cross memory from crossKV as a single
// block.
func (t *blockTables[B]) gather(sessions []*GenSession, l int, cross bool,
	kBlocks, vBlocks func(c *BlockKVCache, dst []B, l, tokens int) []B,
	crossKV func(cc *crossCache) (k, v []B)) {
	t.reset()
	for _, s := range sessions {
		T := s.kv.Len() + 1
		if cross {
			k, v := crossKV(s.cc)
			T = s.cc.srcLen
			t.k, t.v = append(t.k, k[l]), append(t.v, v[l])
		} else {
			t.k, t.v = kBlocks(s.kv, t.k, l, T), vBlocks(s.kv, t.v, l, T)
		}
		t.ends = append(t.ends, len(t.k))
		t.lens = append(t.lens, T)
	}
	start := 0
	for _, end := range t.ends {
		t.kb = append(t.kb, t.k[start:end])
		t.vb = append(t.vb, t.v[start:end])
		start = end
	}
}
