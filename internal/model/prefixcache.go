package model

import (
	"sync"
	"sync/atomic"

	"repro/internal/allocator"
)

// ccRef is a reference-counted, device-accounted handle on a crossCache.
// The projected encoder memory is real KV storage — per layer a [srcLen,
// hidden] K and V — so it is charged to the device's KV gauges exactly once
// however many sessions share it (prompt-identical requests through the
// prefix cache), and released when the last holder closes. Decode rows are
// accounted by the block pool beside it.
type ccRef struct {
	cc    *crossCache
	dev   *allocator.Device
	bytes int64

	mu   sync.Mutex
	refs int
}

// newCCRef wraps cc, charging its footprint to the device KV gauges.
func newCCRef(dev *allocator.Device, cc *crossCache, hidden int) *ccRef {
	r := &ccRef{
		cc:    cc,
		dev:   dev,
		bytes: int64(cc.srcLen) * int64(cc.layers()) * 2 * int64(hidden) * cc.elemBytes(),
		refs:  1,
	}
	dev.AddKVReserved(r.bytes)
	dev.AddKVUsed(r.bytes)
	return r
}

func (r *ccRef) retain() *ccRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refs < 1 {
		panic("model: retain of a released cross cache")
	}
	r.refs++
	return r
}

func (r *ccRef) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refs < 1 {
		panic("model: double release of a cross cache")
	}
	r.refs--
	if r.refs == 0 {
		r.dev.AddKVReserved(-r.bytes)
		r.dev.AddKVUsed(-r.bytes)
	}
}

// hashPrompt is FNV-1a over the prompt's token IDs. The encoder is
// bidirectional — memory[t] depends on the WHOLE prompt — so sharing is
// keyed on the full token sequence, never a proper prefix of it; entries
// additionally store the exact tokens as a collision guard.
func hashPrompt(toks []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, t := range toks {
		u := uint64(t)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime64
			u >>= 8
		}
	}
	return h
}

func sameProm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prefixEntry is one retired generation keyed by its full prompt: the
// shared cross cache (encoder skip on hit), the greedy token stream it
// produced (replay), and — until scavenged — its paged decode KV (mapped by
// continuations past the cached stream). Greedy decoding is deterministic,
// so replay and continuation are bit-identical to recomputing.
type prefixEntry struct {
	prompt  []int
	ccr     *ccRef
	toks    []int
	hitEos  bool
	kv      *BlockKVCache // nil once scavenged (toks still replayable)
	lastUse int64
}

// PrefixCacheStats is a point-in-time snapshot of prefix-cache activity.
type PrefixCacheStats struct {
	Entries    int
	Hits       int64 // sessions opened against a cached prompt
	Misses     int64 // paged sessions whose prompt was unknown
	Evictions  int64 // entries dropped by LRU capacity
	Scavenges  int64 // entries whose decode KV was dropped under pool pressure
	CCShared   int   // cached cross caches currently also held by live sessions
	KVEntries  int   // entries still holding decode KV blocks
	KVBlocks   int   // pool blocks held by cached entries
	ReplayToks int64 // tokens answered from cache instead of decoded
}

// PrefixCache maps full prompts to retired generations (the WeChat FAQ
// workload: a fixed question set asked over and over). Owned by the
// Generator: entries change only on the decode loop's goroutine, like
// sessions, but stats snapshots (the /v1/stats handler, the admission
// gate) may read from any goroutine, so the table is locked.
type PrefixCache struct {
	cap int

	mu      sync.Mutex
	entries map[uint64]*prefixEntry // guarded by mu
	tick    int64                   // guarded by mu

	hits, misses, evictions, scavenges, replayToks atomic.Int64
}

// newPrefixCache builds a cache holding at most capacity retired prompts.
func newPrefixCache(capacity int) *PrefixCache {
	if capacity < 1 {
		capacity = 64
	}
	return &PrefixCache{cap: capacity, entries: map[uint64]*prefixEntry{}}
}

// lookup returns the entry for the exact prompt, bumping its LRU stamp.
func (pc *PrefixCache) lookup(prompt []int) *prefixEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e := pc.entries[hashPrompt(prompt)]
	if e == nil || !sameProm(e.prompt, prompt) {
		return nil
	}
	pc.tick++
	e.lastUse = pc.tick
	return e
}

// dropEntryLocked releases everything an entry holds.
func (pc *PrefixCache) dropEntryLocked(key uint64, e *prefixEntry) {
	if e.kv != nil {
		e.kv.Free()
		e.kv = nil
	}
	e.ccr.release()
	delete(pc.entries, key)
}

// insert stores (or upgrades) the entry for prompt, taking ownership of ccr
// and kv. Returns false — ownership NOT taken — when an existing entry
// already covers at least as many tokens.
func (pc *PrefixCache) insert(prompt []int, ccr *ccRef, toks []int, hitEos bool, kv *BlockKVCache) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	key := hashPrompt(prompt)
	if old := pc.entries[key]; old != nil {
		if !sameProm(old.prompt, prompt) || len(old.toks) >= len(toks) {
			return false // hash collision (keep first) or no upgrade
		}
		pc.dropEntryLocked(key, old)
	}
	pc.tick++
	pc.entries[key] = &prefixEntry{
		prompt:  append([]int(nil), prompt...),
		ccr:     ccr,
		toks:    append([]int(nil), toks...),
		hitEos:  hitEos,
		kv:      kv,
		lastUse: pc.tick,
	}
	for len(pc.entries) > pc.cap {
		pc.evictOldestLocked()
	}
	return true
}

func (pc *PrefixCache) evictOldestLocked() {
	var oldKey uint64
	var old *prefixEntry
	for k, e := range pc.entries {
		if old == nil || e.lastUse < old.lastUse {
			oldKey, old = k, e
		}
	}
	if old != nil {
		pc.dropEntryLocked(oldKey, old)
		pc.evictions.Add(1)
	}
}

// scavenge drops decode KV from least-recently-used entries until at least
// need pool blocks were freed (or nothing is left to drop), returning the
// number freed. Token streams stay replayable; only continuation-by-
// mapping is lost.
func (pc *PrefixCache) scavenge(need int) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	freed := 0
	for freed < need {
		var victim *prefixEntry
		for _, e := range pc.entries {
			if e.kv == nil {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		freed += victim.kv.Blocks()
		victim.kv.Free()
		victim.kv = nil
		pc.scavenges.Add(1)
	}
	return freed
}

// drop releases every entry (generator shutdown).
func (pc *PrefixCache) drop() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for k, e := range pc.entries {
		pc.dropEntryLocked(k, e)
	}
}

// stats snapshots the cache's counters.
func (pc *PrefixCache) stats() PrefixCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st := PrefixCacheStats{
		Entries:    len(pc.entries),
		Hits:       pc.hits.Load(),
		Misses:     pc.misses.Load(),
		Evictions:  pc.evictions.Load(),
		Scavenges:  pc.scavenges.Load(),
		ReplayToks: pc.replayToks.Load(),
	}
	for _, e := range pc.entries {
		if e.kv != nil {
			st.KVEntries++
			st.KVBlocks += e.kv.Blocks()
		}
		e.ccr.mu.Lock()
		if e.ccr.refs > 1 {
			st.CCShared++
		}
		e.ccr.mu.Unlock()
	}
	return st
}
