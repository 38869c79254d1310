package model

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/allocator"
	"repro/internal/tensor"
)

// newPagedGenerator builds an fp32 generator over its own device and a pool
// of capBlocks KVChunkTokens-row blocks — the serving geometry.
func newPagedGenerator(t *testing.T, cfg Config, capBlocks, prefixCap int) (*Generator, *allocator.Device, *allocator.BlockPool) {
	t.Helper()
	return newTestGenerator(t, cfg, KVChunkTokens, capBlocks, prefixCap, false)
}

// blockSizeIndependenceFuzz is the paged-layout property: on fuzzed session
// sets with mixed prompts, budgets, and mid-run admit/evict, token streams
// must be BIT-IDENTICAL whatever the pool's block size — 1-row blocks (every
// row its own block), KVChunkTokens-row blocks (the serving geometry), and
// blocks of at least MaxTargetLen rows (the whole table in one block, the
// contiguous layout) — through both the grouped blocked kernels and the
// per-row blocked oracle. Every pool must drain when the sessions close.
func blockSizeIndependenceFuzz(t *testing.T, fp16 bool) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	cfg := genTestConfig()
	cfg.MaxTargetLen = 2 * KVChunkTokens // budgets cross block boundaries
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		n := 1 + rng.Intn(5)
		mems := make([]int, n)
		budgets := make([]int, n)
		joinAt := make([]int, n)
		evictAt := make([]int, n)
		for i := 0; i < n; i++ {
			mems[i] = 1 + rng.Intn(17)
			budgets[i] = 1 + rng.Intn(cfg.MaxTargetLen)
			joinAt[i] = rng.Intn(6)
			evictAt[i] = -1
			if rng.Intn(4) == 0 {
				evictAt[i] = 1 + rng.Intn(8)
			}
		}
		joinAt[0] = 0

		seed := int64(trial) * 17
		var want [][]int
		for _, blockRows := range []int{1, KVChunkTokens, cfg.MaxTargetLen} {
			for _, perRow := range []bool{false, true} {
				g, dev, pool := newTestGenerator(t, cfg, blockRows, 4096, 0, fp16)
				g.PerRowAttention = perRow
				got := raggedRun(t, g, mems, budgets, joinAt, evictAt, seed)
				if want == nil {
					want = got
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("trial %d session %d, %d-row blocks, per-row=%v: %v vs %v",
							trial, i, blockRows, perRow, got[i], want[i])
					}
				}
				pool.Close() // panics if a block leaked
				if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
					t.Fatalf("trial %d, %d-row blocks: gauges not zero: %+v", trial, blockRows, snap)
				}
			}
		}
	}
}

// TestBlockSizeIndependenceFuzz runs the block-size property on the fp32
// route.
func TestBlockSizeIndependenceFuzz(t *testing.T) { blockSizeIndependenceFuzz(t, false) }

// TestPrefixReplayAndContinuationBitIdentical pins the sharing semantics:
// a retired prompt answers an identical one by replay (encoder and decode
// skipped) and extends by block-table mapping, both bit-identical to
// decoding from scratch — the greedy determinism the WeChat fixed-question
// workload exploits.
func TestPrefixReplayAndContinuationBitIdentical(t *testing.T) {
	cfg := genTestConfig()
	cfg.MaxTargetLen = 2 * KVChunkTokens

	prompt := []int{7, 8, 9, 10}
	mem := func() *tensor.Tensor { return testMemory(99, 6, cfg.Hidden) }

	// Reference streams from a fresh generator that never retires.
	freshAt := func(budget int) []int {
		g, _, _ := newPagedGenerator(t, cfg, 4096, 0)
		s := openSession(t, g, 1, mem(), budget)
		defer s.Close()
		return drain(t, g, s)
	}
	const small, large = 10, 2 * KVChunkTokens
	wantSmall, wantLarge := freshAt(small), freshAt(large)
	if len(wantSmall) < small {
		t.Skip("stream hit EOS before the continuation window; covered by other seeds")
	}

	g, dev, pool := newPagedGenerator(t, cfg, 4096, 8)

	// Miss: decode the small budget from scratch, then retire it.
	s1, err := g.NewPagedSession(1, prompt, mem(), small)
	if err != nil {
		t.Fatal(err)
	}
	got1 := drain(t, g, s1)
	g.Retire(s1)
	for i := range wantSmall {
		if got1[i] != wantSmall[i] {
			t.Fatalf("paged miss stream %v != fresh %v", got1, wantSmall)
		}
	}

	// Hit, same budget: born done, zero decode steps, zero new blocks.
	usedBefore := pool.Stats().UsedBlocks
	s2, err := g.NewPagedSession(2, prompt, nil, small) // nil memory: encoder skipped
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Done() {
		t.Fatal("full prefix hit should be born done")
	}
	if got := s2.Generated(); len(got) != len(wantSmall) {
		t.Fatalf("replay %v != fresh %v", got, wantSmall)
	} else {
		for i := range got {
			if got[i] != wantSmall[i] {
				t.Fatalf("replay %v != fresh %v", got, wantSmall)
			}
		}
	}
	if pool.Stats().UsedBlocks != usedBefore {
		t.Fatal("full replay consumed pool blocks")
	}
	s2.Close()

	// Hit, larger budget: continuation maps the retired block tables
	// (sharing visible in the pool) and extends bit-identically.
	s3, err := g.NewPagedSession(3, prompt, nil, large)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Done() {
		t.Fatal("continuation should not be born done")
	}
	if pool.Stats().SharedBlocks == 0 {
		t.Fatal("continuation did not share the retired block tables")
	}
	got3 := drain(t, g, s3)
	if len(got3) != len(wantLarge) {
		t.Fatalf("continuation %v != fresh %v", got3, wantLarge)
	}
	for i := range got3 {
		if got3[i] != wantLarge[i] {
			t.Fatalf("continuation token %d: %d != fresh %d", i, got3[i], wantLarge[i])
		}
	}
	g.Retire(s3) // upgrade the entry to the longer stream

	// Smaller budget against the upgraded entry: truncated replay.
	s4, err := g.NewPagedSession(4, prompt, nil, small)
	if err != nil {
		t.Fatal(err)
	}
	if !s4.Done() {
		t.Fatal("truncated replay should be born done")
	}
	for i, tok := range s4.Generated() {
		if tok != wantSmall[i] {
			t.Fatalf("truncated replay diverged at %d", i)
		}
	}
	s4.Close()

	// Scavenge the retired KV: replay still works, continuation falls back
	// to a fresh decode — still bit-identical, still encoder-free.
	if g.ScavengePrefix(1 << 30); g.PrefixStats().KVBlocks != 0 {
		t.Fatal("scavenge left retired blocks behind")
	}
	s5, err := g.NewPagedSession(5, prompt, nil, large)
	if err != nil {
		t.Fatal(err)
	}
	var got5 []int
	if s5.Done() {
		got5 = s5.Generated()
	} else {
		got5 = drain(t, g, s5)
	}
	for i := range wantLarge {
		if i >= len(got5) || got5[i] != wantLarge[i] {
			t.Fatalf("post-scavenge stream %v != fresh %v", got5, wantLarge)
		}
	}
	s5.Close()

	st := g.PrefixStats()
	if st.Hits < 3 || st.Misses != 1 {
		t.Fatalf("prefix counters hits=%d misses=%d, want ≥3 hits and 1 miss", st.Hits, st.Misses)
	}

	// Shutdown: cache dropped, pool drained, gauges zero.
	g.ClosePrefix()
	if st := pool.Stats(); st.UsedBlocks != 0 {
		t.Fatalf("%d blocks leaked at shutdown", st.UsedBlocks)
	}
	pool.Close()
	snap := dev.Snapshot()
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("gauges not zero at shutdown: %+v", snap)
	}
}

// TestPagedPoolExhaustionRecovers: with a pool too small for everyone,
// Step fails with ErrKVPoolExhausted, and releasing one session (the
// preemption the serving loop performs) lets the batch proceed losslessly.
func TestPagedPoolExhaustionRecovers(t *testing.T) {
	cfg := genTestConfig()
	// 2 layers × (K+V) = 4 blocks per session per block-depth: capacity 6
	// fits one session and leaves the second stranded mid-ensure.
	g, _, pool := newPagedGenerator(t, cfg, 6, 4)
	var sessions []*GenSession
	for i := 0; i < 2; i++ {
		s, err := g.NewPagedSession(int64(i), []int{i}, testMemory(int64(i), 4, cfg.Hidden), 8)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if _, err := g.Step(sessions); !errors.Is(err, ErrKVPoolExhausted) {
		t.Fatalf("step over an exhausted pool: err=%v, want ErrKVPoolExhausted", err)
	}
	// Preempt the second session: its blocks return and the first proceeds.
	sessions[1].Close()
	for !sessions[0].Done() {
		if _, err := g.Step(sessions[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if len(sessions[0].Generated()) == 0 {
		t.Fatal("survivor generated nothing")
	}
	sessions[0].Close()
	if st := pool.Stats(); st.UsedBlocks != 0 {
		t.Fatalf("%d blocks leaked", st.UsedBlocks)
	}
}
