package model

import (
	"testing"

	"repro/internal/allocator"
)

// fillRows appends n rows to every layer of c, row t holding the value
// base+t in every element, and commits each.
func fillRows(t *testing.T, c *BlockKVCache, layers, hidden, base, n int) {
	t.Helper()
	row := make([]float32, hidden)
	for tok := 0; tok < n; tok++ {
		if !c.EnsureAppendable() {
			t.Fatal("pool exhausted in a sized test")
		}
		for i := range row {
			row[i] = float32(base + tok)
		}
		for l := 0; l < layers; l++ {
			c.AppendRow(l, row, row)
		}
		c.Advance()
	}
}

// TestKVCacheGrowthAndAccounting: the paged cache grows one block per
// table exactly at each block boundary, every row survives across blocks,
// and Free returns every block and byte.
func TestKVCacheGrowthAndAccounting(t *testing.T) {
	const layers, hidden, blockTok = 2, 8, 4
	dev := allocator.NewDevice()
	pool := allocator.NewBlockPool(dev, blockTok*hidden*4, 64)
	c, err := NewBlockKVCache(pool, layers, hidden, false)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3*blockTok+1; n++ {
		fillRows(t, c, layers, hidden, n-1, 1)
		if want := 2 * layers * ((n + blockTok - 1) / blockTok); c.Blocks() != want {
			t.Fatalf("after %d rows: %d blocks, want %d", n, c.Blocks(), want)
		}
	}
	if c.Bytes() != int64(c.Blocks())*pool.BlockBytes() {
		t.Fatalf("cache bytes %d != %d blocks × %d", c.Bytes(), c.Blocks(), pool.BlockBytes())
	}
	// Rows must read back in order through the block tables.
	blocks := c.KBlocks(nil, 1, c.Len())
	for tok := 0; tok < c.Len(); tok++ {
		if got := blocks[tok/blockTok][(tok%blockTok)*hidden]; got != float32(tok) {
			t.Fatalf("row %d reads back %v", tok, got)
		}
	}
	c.Free()
	c.Free() // idempotent
	pool.Close()
	if snap := dev.Snapshot(); snap.LiveBytes != 0 || snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("free left device state behind: %+v", snap)
	}
}

// TestKVCacheMidStepFreeZeroesGauges pins the eviction-between-AppendRow-
// and-Advance path (mid-step cancel or deadline): a row appended to every
// layer but never committed — here the first row of a fresh block — must
// not leak into either KV gauge when the cache is freed.
func TestKVCacheMidStepFreeZeroesGauges(t *testing.T) {
	const layers, hidden, blockTok = 2, 8, 2
	dev := allocator.NewDevice()
	pool := allocator.NewBlockPool(dev, blockTok*hidden*4, 16)
	c, err := NewBlockKVCache(pool, layers, hidden, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two committed tokens fill the first block; a third is appended into
	// a freshly acquired block but NOT advanced — the state a mid-step
	// eviction sees.
	fillRows(t, c, layers, hidden, 0, 2)
	if !c.EnsureAppendable() {
		t.Fatal("pool exhausted in a sized test")
	}
	row := make([]float32, hidden)
	for l := 0; l < layers; l++ {
		c.AppendRow(l, row, row)
	}
	c.Free()
	c.Free() // idempotent
	snap := dev.Snapshot()
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("mid-step free left gauges non-zero: reserved=%d used=%d",
			snap.KVReservedBytes, snap.KVUsedBytes)
	}
	pool.Close()
	if snap := dev.Snapshot(); snap.LiveBytes != 0 {
		t.Fatalf("mid-step free left %d device bytes live", snap.LiveBytes)
	}
}

// TestKVReservedVsUsedGauges: the device must report the KV blocks held
// (reserved) and the actually-occupied rows (used) separately, with used ≤
// reserved throughout — reserved moving only at block boundaries — and
// both released on Free.
func TestKVReservedVsUsedGauges(t *testing.T) {
	const layers, hidden, blockTok = 2, 8, 4
	dev := allocator.NewDevice()
	pool := allocator.NewBlockPool(dev, blockTok*hidden*4, 64)
	defer pool.Close()
	c, err := NewBlockKVCache(pool, layers, hidden, false)
	if err != nil {
		t.Fatal(err)
	}
	if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("gauges moved before any token: %+v", snap)
	}
	perTok := int64(layers) * 2 * hidden * 4
	for tok := 1; tok <= 2*blockTok+1; tok++ {
		fillRows(t, c, layers, hidden, 0, 1)
		snap := dev.Snapshot()
		if snap.KVUsedBytes != int64(tok)*perTok {
			t.Fatalf("after %d tokens: used %d, want %d", tok, snap.KVUsedBytes, int64(tok)*perTok)
		}
		blocks := int64(2 * layers * ((tok + blockTok - 1) / blockTok))
		if want := blocks * pool.BlockBytes(); snap.KVReservedBytes != want {
			t.Fatalf("after %d tokens: reserved %d, want %d blocks = %d", tok, snap.KVReservedBytes, blocks, want)
		}
		if snap.KVUsedBytes > snap.KVReservedBytes {
			t.Fatalf("used %d exceeds reserved %d", snap.KVUsedBytes, snap.KVReservedBytes)
		}
	}
	c.Free()
	if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("gauges not released: reserved=%d used=%d", snap.KVReservedBytes, snap.KVUsedBytes)
	}
}

// TestKVBlocksForMatchesBlockTables pins the block arithmetic the serving
// loop sizes admission and scavenging with against what a session actually
// holds — on the fp32 route (KVChunkTokens rows per block) and the fp16
// route (twice the rows in the same block), at, below and past exact block
// multiples.
func TestKVBlocksForMatchesBlockTables(t *testing.T) {
	cfg := genTestConfig()
	cfg.MaxTargetLen = 4 * KVChunkTokens
	for _, fp16 := range []bool{false, true} {
		g, _, pool := newPagedGenerator(t, cfg, 4096, 0)
		if fp16 {
			g.EnableFP16()
		}
		want := KVChunkTokens
		if fp16 {
			want = 2 * KVChunkTokens
		}
		if bt := g.BlockTokens(); bt != want {
			t.Fatalf("fp16=%v: BlockTokens %d, want %d", fp16, bt, want)
		}
		for _, rows := range []int{0, 1, KVChunkTokens - 1, KVChunkTokens, KVChunkTokens + 1, 2 * KVChunkTokens, 2*KVChunkTokens + 1} {
			c, err := NewBlockKVCache(pool, cfg.Layers, cfg.Hidden, fp16)
			if err != nil {
				t.Fatal(err)
			}
			fillRows(t, c, cfg.Layers, cfg.Hidden, 0, rows)
			if got := g.KVBlocksFor(rows); got != c.Blocks() {
				t.Fatalf("fp16=%v rows=%d: KVBlocksFor %d, session holds %d", fp16, rows, got, c.Blocks())
			}
			c.Free()
		}
		if got, want := g.KVBlocksFor(1), 2*cfg.Layers; got != want {
			t.Fatalf("fp16=%v: next-row cost %d, want one K and V block per layer (%d)", fp16, got, want)
		}
	}
}

// TestRoundUpTokensClampAndPolicy: the growth policy keeps its 1.2×,
// chunk-rounded shape at normal sizes and clamps instead of overflowing at
// adversarial ones.
func TestRoundUpTokensClampAndPolicy(t *testing.T) {
	cases := []struct{ need, want int }{
		{0, KVChunkTokens},
		{1, KVChunkTokens},
		{10, KVChunkTokens},
		{KVChunkTokens, 2 * KVChunkTokens}, // 32×1.2 = 38.4 → 64
		{100, 4 * KVChunkTokens},           // 120 → 128
		{maxKVTokens, maxKVTokens},         // at the cap: no headroom, no overflow
		{maxKVTokens + 7, maxKVTokens + 7}, // past the cap: identity
	}
	for _, tc := range cases {
		if got := roundUpTokens(tc.need); got != tc.want {
			t.Fatalf("roundUpTokens(%d) = %d, want %d", tc.need, got, tc.want)
		}
	}
	// Monotone and never below need, across a sweep.
	prev := 0
	for need := 1; need < 4*KVChunkTokens; need++ {
		got := roundUpTokens(need)
		if got < need || got%KVChunkTokens != 0 || got < prev {
			t.Fatalf("roundUpTokens(%d) = %d violates policy", need, got)
		}
		prev = got
	}
}
