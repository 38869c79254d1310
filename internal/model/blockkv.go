package model

import (
	"fmt"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/tensor"
)

// KVChunkTokens is the default KV block size in fp32 rows: one block of the
// serving pool holds KVChunkTokens rows of one layer's K or V (binary16
// rows pack twice as many into the same block). It is also the granularity
// of the decode scratch's context planning (roundUpTokens).
const KVChunkTokens = 32

// BlockKVCache is one generation request's self-attention keys and values,
// stored as fixed-size blocks from a shared allocator.BlockPool rather than
// a contiguous per-request buffer reserved worst-case. Per layer it keeps
// two block tables (K and V); block b holds rows [b*blockTok,
// (b+1)*blockTok). Blocks are acquired only as decode depth actually
// reaches them, so a request that stops early never claimed the pool space
// its budget implied — admission can pack by actual consumption.
//
// Sharing: MapFrom adopts another cache's blocks by reference (prompt-hash
// prefix sharing), and owned[] tracks write permission per block index. A
// block that is shared — or adopted at all, since it may hold donor rows
// past the mapped length — is read-only; EnsureAppendable copy-on-writes
// the tail before the next append, so appends never mutate bytes any other
// holder can see.
//
// Accounting: the pool charges the device's KV-reserved gauge per block
// held (once, however many caches share it) and the KV-used gauge per
// committed row (Advance → pool.Commit). An eviction at any point — even
// between AppendRow and Advance — releases blocks whose committed payload
// is exactly what was charged, so the gauges return to zero.
//
// A BlockKVCache is confined to the decode loop's goroutine.
type BlockKVCache struct {
	pool     *allocator.BlockPool
	hidden   int
	half     bool // binary16 rows: 2 bytes/element, double the tokens per block
	blockTok int
	k, v     [][]*allocator.Block // [layer][block]
	owned    [][]bool             // [layer][block]: this cache may write K and V there
	length   int                  // committed rows

	// Invariant outside EnsureAppendable: len(k[l]) == len(v[l]) ==
	// ceil(length'/blockTok) where length' is length or length+1 if a
	// boundary block was pre-acquired for the in-flight step.
}

// NewBlockKVCache opens an empty paged cache on pool, with binary16 rows
// when half is set: the same pool blocks then hold twice the tokens
// (blockTok doubles), so the same device budget admits ~2× the sessions.
// The pool's block size must be a whole number of rows. No blocks are
// acquired until the first EnsureAppendable.
func NewBlockKVCache(pool *allocator.BlockPool, layers, hidden int, half bool) (*BlockKVCache, error) {
	if layers <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("model: invalid paged KV geometry layers=%d hidden=%d", layers, hidden)
	}
	rowBytes := int64(hidden) * 4
	if half {
		rowBytes = int64(hidden) * 2
	}
	if pool.BlockBytes() < rowBytes || pool.BlockBytes()%rowBytes != 0 {
		return nil, fmt.Errorf("model: pool block %d bytes not a multiple of the %d-byte KV row",
			pool.BlockBytes(), rowBytes)
	}
	return &BlockKVCache{
		pool:     pool,
		hidden:   hidden,
		half:     half,
		blockTok: int(pool.BlockBytes() / rowBytes),
		k:        make([][]*allocator.Block, layers),
		v:        make([][]*allocator.Block, layers),
		owned:    make([][]bool, layers),
	}, nil
}

// Half reports whether the cache stores binary16 rows.
func (c *BlockKVCache) Half() bool { return c.half }

// rowBytes returns the committed size of one [hidden] row.
func (c *BlockKVCache) rowBytes() int64 {
	if c.half {
		return int64(c.hidden) * 2
	}
	return int64(c.hidden) * 4
}

// BlockTokens returns the pool's block size in rows.
func (c *BlockKVCache) BlockTokens() int { return c.blockTok }

// Len returns the number of committed tokens.
func (c *BlockKVCache) Len() int { return c.length }

// Bytes returns the device footprint of the blocks this cache holds
// (shared blocks included — they are live memory the cache keeps alive).
func (c *BlockKVCache) Bytes() int64 {
	return int64(c.Blocks()) * c.pool.BlockBytes()
}

// Blocks returns how many pool blocks the cache currently holds.
func (c *BlockKVCache) Blocks() int {
	n := 0
	for l := range c.k {
		n += len(c.k[l]) + len(c.v[l])
	}
	return n
}

// MapFrom adopts the first rows committed rows of src by reference: every
// covering block is retained, not copied, and marked read-only for this
// cache (the tail copy-on-writes at the first append). Only an empty cache
// can map, and src must have the rows committed. The KV-used gauge does not
// move — the rows exist physically once.
func (c *BlockKVCache) MapFrom(src *BlockKVCache, rows int) error {
	if c.length != 0 || c.Blocks() != 0 {
		return fmt.Errorf("model: MapFrom into a non-empty paged cache")
	}
	if src.pool != c.pool || src.hidden != c.hidden || src.half != c.half || len(src.k) != len(c.k) {
		return fmt.Errorf("model: MapFrom across incompatible caches")
	}
	if rows < 0 || rows > src.length {
		return fmt.Errorf("model: MapFrom %d rows from a %d-row cache", rows, src.length)
	}
	if rows == 0 {
		return nil
	}
	nb := (rows + c.blockTok - 1) / c.blockTok
	for l := range c.k {
		for b := 0; b < nb; b++ {
			c.pool.Retain(src.k[l][b])
			c.pool.Retain(src.v[l][b])
			c.k[l] = append(c.k[l], src.k[l][b])
			c.v[l] = append(c.v[l], src.v[l][b])
			c.owned[l] = append(c.owned[l], false)
		}
	}
	c.length = rows
	return nil
}

// EnsureAppendable guarantees the next AppendRow/Advance round has an
// exclusively writable row in every layer's K and V: it acquires boundary
// blocks when length sits on a block edge and copy-on-writes any tail block
// this cache cannot write. All-or-nothing: when the pool cannot supply
// every needed block it returns false with the cache unchanged — the
// serving loop's cue to scavenge the prefix cache or preempt a session and
// retry. Idempotent: need is re-derived from committed state, so calling it
// again after a mid-step eviction or a false return is safe.
func (c *BlockKVCache) EnsureAppendable() bool {
	bi := c.length / c.blockTok

	// Phase 1: derive the work list from committed state.
	type work struct {
		layer int
		isV   bool
		cow   bool // replace the read-only tail (vs append a fresh boundary block)
	}
	var items []work
	for l := range c.k {
		for _, isV := range [2]bool{false, true} {
			table := c.k[l]
			if isV {
				table = c.v[l]
			}
			switch {
			case len(table) <= bi:
				items = append(items, work{l, isV, false})
			case !c.owned[l][bi] || table[bi].Shared():
				items = append(items, work{l, isV, true})
			}
		}
	}
	if len(items) == 0 {
		return true
	}

	// Phase 2: acquire every block, or release what was acquired and fail
	// with the tables untouched.
	blocks := make([]*allocator.Block, len(items))
	for i, w := range items {
		var b *allocator.Block
		if w.cow {
			b = c.pool.AllocCoW()
		} else {
			b = c.pool.Alloc()
		}
		if b == nil {
			for _, a := range blocks[:i] {
				c.pool.Release(a)
			}
			return false
		}
		blocks[i] = b
	}

	// Phase 3: apply (infallible).
	tailElems := (c.length % c.blockTok) * c.hidden
	for i, w := range items {
		table := &c.k[w.layer]
		if w.isV {
			table = &c.v[w.layer]
		}
		b := blocks[i]
		if w.cow {
			old := (*table)[bi]
			if c.half {
				copy(b.DataU16()[:tailElems], old.DataU16()[:tailElems])
				c.pool.Commit(b, int64(tailElems)*2)
			} else {
				copy(b.Data()[:tailElems], old.Data()[:tailElems])
				c.pool.Commit(b, int64(tailElems)*4)
			}
			c.pool.Release(old)
			(*table)[bi] = b
		} else {
			*table = append(*table, b)
		}
	}
	for l := range c.owned {
		for len(c.owned[l]) <= bi {
			c.owned[l] = append(c.owned[l], false)
		}
		c.owned[l][bi] = true
	}
	return true
}

// AppendRow stores one token's K and V rows for the given layer at the next
// position; every layer appends exactly once per step, then Advance
// commits the token. The caller must have run EnsureAppendable for this
// step; appending without capacity or into a block another cache can see
// panics. Gauges do not move until Advance.
func (c *BlockKVCache) AppendRow(layer int, kRow, vRow []float32) {
	kb, vb, off := c.tailRow(layer, len(kRow), len(vRow))
	if c.half {
		tensor.EncodeF16Slice(kb.DataU16()[off:off+c.hidden], kRow)
		tensor.EncodeF16Slice(vb.DataU16()[off:off+c.hidden], vRow)
		return
	}
	copy(kb.Data()[off:off+c.hidden], kRow)
	copy(vb.Data()[off:off+c.hidden], vRow)
}

// tailRow returns layer's K and V blocks holding the next row and the
// row's element offset in them, panicking on a row of the wrong width or a
// tail EnsureAppendable did not prepare.
func (c *BlockKVCache) tailRow(layer, kLen, vLen int) (kb, vb *allocator.Block, off int) {
	if kLen != c.hidden || vLen != c.hidden {
		panic(fmt.Sprintf("model: KV row size %d/%d, want %d", kLen, vLen, c.hidden))
	}
	bi := c.length / c.blockTok
	kt, vt := c.k[layer], c.v[layer]
	if bi >= len(kt) || bi >= len(vt) || !c.owned[layer][bi] {
		panic("model: KV append without EnsureAppendable")
	}
	kb, vb = kt[bi], vt[bi]
	if kb.Shared() || vb.Shared() {
		panic("model: KV append into a shared block")
	}
	return kb, vb, (c.length % c.blockTok) * c.hidden
}

// Advance commits the row appended to every layer this step, charging the
// KV-used gauge one row across all layers' K and V blocks.
func (c *BlockKVCache) Advance() {
	bi := c.length / c.blockTok
	rb := c.rowBytes()
	for l := range c.k {
		c.pool.Commit(c.k[l][bi], rb)
		c.pool.Commit(c.v[l][bi], rb)
	}
	c.length++
}

// KBlocks appends layer l's key blocks covering tokens rows (tokens may
// include the row appended but not yet advanced) to dst — each a
// full-capacity block slice, the layout kernels.AttentionBlocked reads
// through. Append-style so the decode scratch can reuse one backing array
// across sessions and steps. Panics on a binary16 cache — use KBlocksH.
func (c *BlockKVCache) KBlocks(dst [][]float32, l, tokens int) [][]float32 {
	if c.half {
		panic("model: KBlocks on a binary16 paged cache; use KBlocksH")
	}
	return appendBlocks(dst, c.k[l], tokens, c.blockTok, (*allocator.Block).Data)
}

// VBlocks appends layer l's value blocks, like KBlocks.
func (c *BlockKVCache) VBlocks(dst [][]float32, l, tokens int) [][]float32 {
	if c.half {
		panic("model: VBlocks on a binary16 paged cache; use VBlocksH")
	}
	return appendBlocks(dst, c.v[l], tokens, c.blockTok, (*allocator.Block).Data)
}

// KBlocksH appends layer l's key blocks as binary16 storage (fp16 caches
// only), the layout kernels.AttentionBlockedF16 reads through.
func (c *BlockKVCache) KBlocksH(dst []blas.Half, l, tokens int) []blas.Half {
	if !c.half {
		panic("model: KBlocksH on an fp32 paged cache; use KBlocks")
	}
	return appendBlocks(dst, c.k[l], tokens, c.blockTok, (*allocator.Block).DataU16)
}

// VBlocksH appends layer l's value blocks, like KBlocksH.
func (c *BlockKVCache) VBlocksH(dst []blas.Half, l, tokens int) []blas.Half {
	if !c.half {
		panic("model: VBlocksH on an fp32 paged cache; use VBlocks")
	}
	return appendBlocks(dst, c.v[l], tokens, c.blockTok, (*allocator.Block).DataU16)
}

// appendBlocks appends the views of the table's blocks covering tokens
// rows of blockTok rows each.
func appendBlocks[B ~[]E, E any](dst []B, table []*allocator.Block, tokens, blockTok int, view func(*allocator.Block) []E) []B {
	for b := 0; b*blockTok < tokens; b++ {
		dst = append(dst, view(table[b]))
	}
	return dst
}

// Free releases every held block back to the pool (the pool adjusts both
// gauges for blocks whose last holder leaves). Idempotent.
func (c *BlockKVCache) Free() {
	if c.k == nil {
		return
	}
	for l := range c.k {
		for _, b := range c.k[l] {
			c.pool.Release(b)
		}
		for _, b := range c.v[l] {
			c.pool.Release(b)
		}
	}
	c.k, c.v, c.owned = nil, nil, nil
	c.length = 0
}
