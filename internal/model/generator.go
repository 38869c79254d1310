package model

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Generator drives iteration-level (continuous-batching) autoregressive
// generation on top of the Seq2Seq decoder: unlike BeamSearch, which owns a
// whole request from start to finish, the Generator advances an arbitrary
// set of live sessions by exactly one token per Step call, so a serving
// loop can admit and evict requests between decode iterations.
//
// Every projection is batched across sessions ([rows,H]×[H,N] GEMMs) even
// though the sessions sit at different positions with different context
// lengths — and the ragged parts run grouped: self- and cross-attention
// execute as one blocked grouped-attention call per sub-layer, a grouped
// strided-batched GEMM over the flattened (session, block, head) space with
// each session's own context length as its group shape, plus a packed
// scaled softmax over the concatenated score rows. No session is ever
// padded to a batch-maximum context. Because every (session, head) problem
// runs the same GEMM kernel the per-row oracle uses, a session's token
// stream is bit-identical whether it runs alone, batched with strangers, or
// through the PerRowAttention reference path.
//
// Session KV lives in one place: fixed-size blocks of a shared
// allocator.BlockPool (BlockKVCache), with retired generations kept in a
// prefix cache for prompt-identical reuse.
//
// Step draws its activations from the decoder's device-accounted decode
// scratch, so concurrent Step calls on one Generator serialise on that
// workspace — the serving loop is single-threaded by design. Sessions may
// be created and closed from any goroutine.
type Generator struct {
	Cfg Config
	dec *Decoder
	dev *allocator.Device

	// PerRowAttention selects the reference oracle: per-session single-query
	// attention (Decoder.attendBlocked / attendBlockedF16) instead of the
	// grouped kernels. Token streams are bit-identical either way — property
	// tests and the gen-decode benchmark pin it.
	PerRowAttention bool

	// pool supplies every session's KV blocks; prefix caches retired
	// generations for prompt-identical reuse.
	pool   *allocator.BlockPool
	prefix *PrefixCache

	// fusedLaunches counts the fused attention kernel chains the fp16 route
	// has dispatched (score-GEMM-with-fused-scale + softmax-cast + context
	// product as one grouped call per sub-layer). Exposed via /v1/stats.
	fusedLaunches atomic.Int64
}

// ErrKVPoolExhausted is returned by Step when a session cannot acquire the
// blocks its next row needs. The serving loop reacts by scavenging the
// prefix cache or preempting a session, then retries — it pre-ensures block
// capacity before stepping, so Step itself should never see this unless the
// pool is undersized for even one request.
var ErrKVPoolExhausted = fmt.Errorf("model: KV block pool exhausted")

// BlockPool returns the KV block pool.
func (g *Generator) BlockPool() *allocator.BlockPool { return g.pool }

// BlockTokens returns how many decode rows one pool block holds on the
// active numeric route — binary16 rows pack twice as many.
func (g *Generator) BlockTokens() int {
	return int(g.pool.BlockBytes() / (int64(g.Cfg.Hidden) * g.dec.elemBytes()))
}

// KVBlocksFor returns the pool blocks a session with rows committed decode
// rows holds: one K and one V block table per layer, each covering rows.
// KVBlocksFor(1) is the worst-case cost of a session's next row — the unit
// admission, scavenging and the watermark reason in.
func (g *Generator) KVBlocksFor(rows int) int {
	bt := g.BlockTokens()
	return 2 * g.Cfg.Layers * ((rows + bt - 1) / bt)
}

// PrefixStats snapshots prefix-cache activity.
func (g *Generator) PrefixStats() PrefixCacheStats { return g.prefix.stats() }

// PrefixKnown reports whether the prefix cache holds an entry for this
// exact prompt — the prefill loop's peek for deciding which admitted
// prompts can skip the encoder pass. Hit/miss counters move only when a
// session is actually opened (NewPagedSession).
func (g *Generator) PrefixKnown(prompt []int) bool { return g.prefix.lookup(prompt) != nil }

// ScavengePrefix drops retired decode KV from least-recently-used prefix
// entries until at least need pool blocks come free, returning the number
// freed. Cached token streams stay replayable.
func (g *Generator) ScavengePrefix(need int) int { return g.prefix.scavenge(need) }

// ClosePrefix releases every retired entry (server shutdown). The pool can
// be Closed once live sessions are closed too.
func (g *Generator) ClosePrefix() { g.prefix.drop() }

// KVRowBytes is the device footprint one token of decoder context costs
// across all layers' K and V — the unit converting token counts into the
// device's KV byte gauges. The fp16 fast path halves it: binary16 rows cost
// 2 bytes per element, so the same device budget admits ~2× the context
// tokens.
func (g *Generator) KVRowBytes() int64 {
	return int64(g.Cfg.Layers) * 2 * int64(g.Cfg.Hidden) * g.dec.elemBytes()
}

// EnableFP16 switches generation to the binary16 fast path: weights encoded
// once, KV caches (self and cross) stored as binary16, decode attention
// dispatched through the fused fp16 kernel chains. Must be called before
// any session is opened. Idempotent.
func (g *Generator) EnableFP16() { g.dec.EnableFP16() }

// FP16Enabled reports whether the fp16 fast path is active.
func (g *Generator) FP16Enabled() bool { return g.dec.fp16 }

// FusedLaunches returns how many fused attention kernel chains the fp16
// route has dispatched.
func (g *Generator) FusedLaunches() int64 { return g.fusedLaunches.Load() }

// NewGenerator builds a generator around a decoder configuration. Session
// KV pages through pool, whose device also accounts the cross-attention
// memory and the decode scratch; up to prefixCap retired generations are
// kept for prompt-identical reuse (0 = default 64). Each pool block must
// hold a whole number of KV rows on the numeric route sessions open with
// (checked per session).
func NewGenerator(cfg Config, seed int64, pool *allocator.BlockPool, prefixCap int) (*Generator, error) {
	if pool == nil {
		return nil, fmt.Errorf("model %s: generator needs a KV block pool", cfg.Name)
	}
	dec, err := NewDecoder(cfg, seed)
	if err != nil {
		return nil, err
	}
	dev := pool.Device()
	// Rebind the decoder's workspace to the shared device so decode
	// activations are visible in the same MemoryStats as KV caches.
	dec.scr = newDecodeScratch(dev)
	return &Generator{Cfg: cfg, dec: dec, dev: dev, pool: pool, prefix: newPrefixCache(prefixCap)}, nil
}

// Decoder exposes the underlying decoder (for tests comparing against the
// one-shot BeamSearch path).
func (g *Generator) Decoder() *Decoder { return g.dec }

// GenSession is one request's in-flight generation state: its private
// cross-attention memory, its paged KV cache, and the greedy token stream
// so far.
type GenSession struct {
	ID int64

	cc     *crossCache
	ccr    *ccRef        // refcounted, device-accounted handle on cc
	kv     *BlockKVCache // nil once closed or retired
	prompt []int         // prompt tokens (prefix-cache key)
	toks   []int         // generated tokens, EOS included if hit
	next   int           // token fed at the next step (BOS, then last generated)
	pos    int           // next decode position
	maxNew int
	done   bool
	ctx    context.Context // nil = never cancelled
}

// Bind attaches a lifecycle context to the session. The decode loop driving
// the session checks Cancelled between iterations and evicts the session
// (releasing its KV blocks) within one step of the context ending — Step
// itself never aborts a batch mid-iteration, so cancelling one session's
// context cannot perturb its batch-mates' token streams.
func (s *GenSession) Bind(ctx context.Context) { s.ctx = ctx }

// Cancelled reports whether the session's bound context (if any) has ended
// — the per-iteration check continuous-batching loops make between steps.
func (s *GenSession) Cancelled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// Generated returns the tokens produced so far.
func (s *GenSession) Generated() []int { return s.toks }

// Done reports whether the session hit EOS or its token budget.
func (s *GenSession) Done() bool { return s.done }

// KVBytes returns the session's current KV-cache device footprint.
func (s *GenSession) KVBytes() int64 { return s.kv.Bytes() }

// EnsureAppendable pre-acquires (and copy-on-writes) whatever blocks the
// session's next decode row needs, returning false when the pool cannot
// supply them — the serving loop's pre-step reservation hook. Always true
// for closed or finished sessions. Idempotent.
func (s *GenSession) EnsureAppendable() bool {
	if s.kv == nil || s.done {
		return true
	}
	return s.kv.EnsureAppendable()
}

// NewPagedSession opens a generation session keyed by the prompt's tokens,
// producing at most maxNew tokens (clamped to the decoder's MaxTargetLen).
// On a prefix hit (an identical prompt was retired before) the cached cross
// cache is shared — memory may be nil, letting the caller skip the encoder
// pass entirely — the cached greedy stream is replayed up to maxNew
// (bit-identical to decoding, greedy is deterministic), and a continuation
// past it maps the retired block tables copy-free. On a miss, memory must
// be the encoded prompt [srcLen, hidden] and decoding starts from scratch
// over an empty block table.
func (g *Generator) NewPagedSession(id int64, prompt []int, memory *tensor.Tensor, maxNew int) (*GenSession, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("model %s: session needs the prompt tokens", g.Cfg.Name)
	}
	if maxNew <= 0 || maxNew > g.Cfg.MaxTargetLen {
		maxNew = g.Cfg.MaxTargetLen
	}
	entry := g.prefix.lookup(prompt)
	var ccr *ccRef
	switch {
	case entry != nil:
		ccr = entry.ccr.retain()
		g.prefix.hits.Add(1)
	case memory == nil:
		return nil, fmt.Errorf("model %s: prompt not cached and no memory supplied", g.Cfg.Name)
	default:
		if memory.Rank() != 2 || memory.Dim(1) != g.Cfg.Hidden {
			return nil, fmt.Errorf("model %s: memory shape %v, want [srcLen, %d]",
				g.Cfg.Name, memory.Shape(), g.Cfg.Hidden)
		}
		ccr = newCCRef(g.dev, g.dec.newCrossCache(memory), g.Cfg.Hidden)
		g.prefix.misses.Add(1)
	}
	kv, err := NewBlockKVCache(g.pool, g.Cfg.Layers, g.Cfg.Hidden, g.dec.fp16)
	if err != nil {
		ccr.release()
		return nil, err
	}
	s := &GenSession{
		ID:     id,
		cc:     ccr.cc,
		ccr:    ccr,
		kv:     kv,
		prompt: append([]int(nil), prompt...),
		next:   TokBos,
		maxNew: maxNew,
	}
	if entry == nil {
		return s, nil
	}
	replay := len(entry.toks)
	if replay > maxNew {
		replay = maxNew
	}
	if replay == maxNew || entry.hitEos {
		// The cached stream answers the request outright: budget reached, or
		// the cache holds the full stream to EOS. Born done, zero decode.
		s.toks = append(s.toks, entry.toks[:replay]...)
		s.pos = replay
		s.done = true
		g.prefix.replayToks.Add(int64(replay))
		return s, nil
	}
	// Continuation: the cached stream is shorter than the budget and open-
	// ended. Map its block tables (copy-on-write at the tail) and resume
	// exactly where the donor stopped; if the KV was scavenged, fall through
	// to a fresh decode — the shared cross cache still skipped the encoder.
	if entry.kv != nil && entry.kv.Len() == replay && replay > 0 {
		if err := kv.MapFrom(entry.kv, replay); err != nil {
			ccr.release()
			kv.Free()
			return nil, err
		}
		s.toks = append(s.toks, entry.toks[:replay]...)
		s.pos = replay
		s.next = entry.toks[replay-1]
		g.prefix.replayToks.Add(int64(replay))
	}
	return s, nil
}

// Retire donates a naturally-completed session to the prefix cache — its
// cross cache, token stream, and block tables — instead of freeing them, so
// the next identical prompt replays instead of recomputing. Falls back to
// Close for unfinished sessions (their stream is not a valid replay), or
// when an existing entry already covers the prompt.
func (g *Generator) Retire(s *GenSession) {
	if s == nil {
		return
	}
	if s.kv == nil || s.prompt == nil || !s.done {
		s.Close()
		return
	}
	hitEos := len(s.toks) > 0 && s.toks[len(s.toks)-1] == TokEos
	if g.prefix.insert(s.prompt, s.ccr, s.toks, hitEos, s.kv) {
		// Ownership moved to the cache entry.
		s.ccr, s.kv = nil, nil
		return
	}
	s.Close()
}

// Close releases the session's device memory. Idempotent.
func (s *GenSession) Close() {
	if s.kv != nil {
		s.kv.Free()
		s.kv = nil
	}
	if s.ccr != nil {
		s.ccr.release()
		s.ccr = nil
	}
}

// Step advances every session by one greedy token and returns the token
// chosen for each, in order. Sessions marked done are rejected — the
// continuous scheduler must evict them between iterations. The body is
// precision-free: only linear and attention look at the numeric route.
func (g *Generator) Step(sessions []*GenSession) ([]int, error) {
	rows := len(sessions)
	if rows == 0 {
		return nil, nil
	}
	// Iteration shape: Σ self-context (including the row each session is
	// about to append) and Σ cross-context size the score scratch must hold.
	sumSelf, sumCross := 0, 0
	for _, s := range sessions {
		if s.done {
			return nil, fmt.Errorf("model %s: session %d already done", g.Cfg.Name, s.ID)
		}
		if s.kv == nil {
			return nil, fmt.Errorf("model %s: session %d closed", g.Cfg.Name, s.ID)
		}
		if s.cc.half != g.dec.fp16 || s.kv.Half() != g.dec.fp16 {
			return nil, fmt.Errorf("model %s: session %d opened on the other numeric route", g.Cfg.Name, s.ID)
		}
		sumSelf += s.kv.Len() + 1
		sumCross += s.cc.srcLen
	}
	// Sessions pre-acquire this step's boundary/CoW blocks so the append
	// loop below cannot fail mid-iteration. Serving loops call
	// EnsureAppendable themselves before stepping (to scavenge or preempt on
	// exhaustion); this re-check is then a cheap no-op.
	for _, s := range sessions {
		if !s.kv.EnsureAppendable() {
			return nil, ErrKVPoolExhausted
		}
	}
	d := g.dec
	h, inter, vocab := g.Cfg.Hidden, g.Cfg.Inter, g.Cfg.Vocab

	scr := d.scr
	scr.mu.Lock()
	defer scr.mu.Unlock()
	// Drop this iteration's KV references on the way out so an idle
	// generator never pins evicted sessions' blocks (LIFO: runs before the
	// unlock above).
	defer scr.clearGather()
	scr.plan(&g.Cfg, rows, max(sumSelf, sumCross))
	x := scr.x[:rows*h]
	q := scr.q[:rows*h]
	kNew := scr.k[:rows*h]
	vNew := scr.v[:rows*h]
	ctx := scr.ctx[:rows*h]
	proj := scr.proj[:rows*h]
	interBuf := scr.inter[:rows*inter]

	// Embed every session's next token at its own position.
	pe := scr.pe
	for ri, s := range sessions {
		row := x[ri*h : (ri+1)*h]
		copy(row, d.Embed.Word.Data()[s.next*h:(s.next+1)*h])
		positionEncoding(s.pos, h, pe)
		for i := range row {
			row[i] += pe[i]
		}
	}
	kernels.LayerNorm(x, d.Embed.Gamma.Data(), d.Embed.Beta.Data(), rows, h, 1e-5)

	for l := range d.layers {
		lw := &d.layers[l]

		// Self-attention: batched projections, each session's new K/V row
		// appended to its block tables, then grouped attention over them.
		g.linear(rows, x, lw.selfWq, lw.selfBq, q)
		g.linear(rows, x, lw.selfWk, lw.selfBk, kNew)
		g.linear(rows, x, lw.selfWv, lw.selfBv, vNew)
		for ri, s := range sessions {
			s.kv.AppendRow(l, kNew[ri*h:(ri+1)*h], vNew[ri*h:(ri+1)*h])
		}
		g.attention(sessions, l, false, q, ctx)
		g.linear(rows, ctx, lw.selfWo, lw.selfBo, proj)
		kernels.AddResidual(x, proj)
		kernels.LayerNorm(x, lw.selfLnG.Data(), lw.selfLnB.Data(), rows, h, 1e-5)

		// Cross-attention against each session's own prompt memory.
		g.linear(rows, x, lw.crossWq, lw.crossBq, q)
		g.attention(sessions, l, true, q, ctx)
		g.linear(rows, ctx, lw.crossWo, lw.crossBo, proj)
		kernels.AddResidual(x, proj)
		kernels.LayerNorm(x, lw.crossLnG.Data(), lw.crossLnB.Data(), rows, h, 1e-5)

		// Feed-forward network, batched.
		g.linear(rows, x, lw.ffnW1, lw.ffnB1, interBuf)
		kernels.Act(g.Cfg.Act, interBuf)
		g.linear(rows, interBuf, lw.ffnW2, lw.ffnB2, proj)
		kernels.AddResidual(x, proj)
		kernels.LayerNorm(x, lw.ffnLnG.Data(), lw.ffnLnB.Data(), rows, h, 1e-5)
	}

	// Vocabulary projection and greedy argmax per session.
	logits := scr.logits[:rows*vocab]
	g.linear(rows, x, d.Proj, nil, logits)
	out := make([]int, rows)
	for ri, s := range sessions {
		tok := argmax(logits[ri*vocab : (ri+1)*vocab])
		out[ri] = tok
		s.toks = append(s.toks, tok)
		s.kv.Advance()
		s.pos++
		s.next = tok
		if tok == TokEos || len(s.toks) >= s.maxNew {
			s.done = true
		}
	}
	return out, nil
}

// linear computes out = in·W (+ b) over the batch's rows on the decoder's
// numeric route: an fp32 GEMM, or a binary16 GEMM whose input rounds
// through binary16 into the encode scratch (the Tensor Core load
// conversion) against the weight EnableFP16 pre-encoded. Accumulation is
// fp32 either way. Called with the decode scratch locked.
func (g *Generator) linear(rows int, in []float32, w, b *tensor.Tensor, out []float32) {
	d := g.dec
	k, n := w.Dim(0), w.Dim(1)
	if d.fp16 {
		xh := d.scr.halfIn(rows * k)
		tensor.EncodeF16Slice(xh, in[:rows*k])
		blas.GemmF16(false, false, rows, n, k, 1, xh, k, d.halfW[w], n, 0, out, n)
	} else {
		blas.Gemm(false, false, rows, n, k, 1, in, k, w.Data(), n, 0, out, n)
	}
	if b != nil {
		kernels.AddBias(out, b.Data(), rows, n)
	}
}

// attention runs layer l's self-attention (cross false, over the rows each
// session has appended so far) or cross-attention (over its prompt memory)
// for the whole batch on the decoder's numeric route, writing ctx. Every
// session's K/V is read through a block table: its paged cache, or its
// cross memory as one block as wide as the batch's longest prompt — the
// single-block case of the blocked kernels builds exactly the GEMM groups a
// contiguous layout would. The fp16 route reads binary16 storage through
// the fused kernel chain; PerRowAttention swaps in the per-row oracle.
// Called with the decode scratch locked.
func (g *Generator) attention(sessions []*GenSession, l int, cross bool, q, ctx []float32) {
	d, scr := g.dec, g.dec.scr
	h, heads := g.Cfg.Hidden, g.Cfg.Heads
	hd := h / heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	blockTok := g.BlockTokens()
	if cross {
		blockTok = 0
		for _, s := range sessions {
			blockTok = max(blockTok, s.cc.srcLen)
		}
	}
	if d.fp16 {
		t := &scr.half
		t.gather(sessions, l, cross, (*BlockKVCache).KBlocksH, (*BlockKVCache).VBlocksH,
			func(cc *crossCache) ([]blas.Half, []blas.Half) { return cc.kh, cc.vh })
		if g.PerRowAttention {
			for ri := range sessions {
				d.attendBlockedF16(q[ri*h:(ri+1)*h], t.kb[ri], t.vb[ri], t.lens[ri], blockTok, ctx[ri*h:(ri+1)*h])
			}
			return
		}
		scr.ws.AttentionBlockedF16(q, t.kb, t.vb, t.lens, blockTok, heads, hd, scale, scr.scores, ctx)
		g.fusedLaunches.Add(1)
		return
	}
	t := &scr.single
	t.gather(sessions, l, cross, (*BlockKVCache).KBlocks, (*BlockKVCache).VBlocks,
		func(cc *crossCache) ([][]float32, [][]float32) { return cc.k, cc.v })
	if g.PerRowAttention {
		for ri := range sessions {
			d.attendBlocked(q[ri*h:(ri+1)*h], t.kb[ri], t.vb[ri], t.lens[ri], blockTok, ctx[ri*h:(ri+1)*h])
		}
		return
	}
	scr.ws.AttentionBlocked(q, t.kb, t.vb, t.lens, blockTok, heads, hd, scale, scr.scores, ctx)
}

// argmax returns the index of the largest value (first on ties, for
// determinism).
func argmax(vals []float32) int {
	best := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[best] {
			best = i
		}
	}
	return best
}
