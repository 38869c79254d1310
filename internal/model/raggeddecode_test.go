package model

import (
	"math/rand"
	"testing"

	"repro/internal/allocator"
)

// raggedRun drives a fuzzed continuous-batching schedule on g: session i
// joins at joinAt[i] with a unique prompt (no sharing — pure paging), steps
// raggedly with whoever is live, leaves when done (or is force-closed at
// evictAt[i] if set). Returns each session's stream.
func raggedRun(t *testing.T, g *Generator, mems []int, budgets, joinAt, evictAt []int, seed int64) [][]int {
	t.Helper()
	n := len(mems)
	sessions := make([]*GenSession, n)
	streams := make([][]int, n)
	var live []*GenSession
	started := 0
	for step := 0; step < 512; step++ {
		for i := 0; i < n; i++ {
			if sessions[i] == nil && joinAt[i] == step {
				mem := testMemory(seed+int64(i), mems[i], g.Cfg.Hidden)
				prompt := []int{1000 + i, int(seed), mems[i]}
				s, err := g.NewPagedSession(int64(i), prompt, mem, budgets[i])
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
				live = append(live, s)
				started++
			}
		}
		if len(live) == 0 {
			if started == n {
				break
			}
			continue
		}
		if _, err := g.Step(live); err != nil {
			t.Fatal(err)
		}
		kept := live[:0]
		for _, s := range live {
			i := int(s.ID)
			// Mid-run eviction: a request whose client vanished leaves the
			// batch even though it is not done.
			if evictAt[i] >= 0 && len(s.Generated()) >= evictAt[i] && !s.Done() {
				streams[i] = append([]int(nil), s.Generated()...)
				s.Close()
				continue
			}
			if s.Done() {
				streams[i] = append([]int(nil), s.Generated()...)
				s.Close()
				continue
			}
			kept = append(kept, s)
		}
		live = kept
	}
	if len(live) != 0 || started != n {
		t.Fatalf("ragged run did not terminate: %d live, %d/%d started", len(live), started, n)
	}
	return streams
}

// TestRaggedDecodeBitIdenticalToPerRowFuzz is the tentpole property test:
// on fuzzed session sets with mixed prompt lengths, mixed context lengths,
// and mid-run admit/evict, the grouped ragged decode path must produce
// BIT-IDENTICAL token streams to the per-row reference attention. Streams
// are compared exactly — any ulp drift in the grouped kernels would surface
// as a diverging argmax somewhere across the fuzz corpus.
func TestRaggedDecodeBitIdenticalToPerRowFuzz(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	cfg := genTestConfig()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 1 + rng.Intn(5)
		mems := make([]int, n)
		budgets := make([]int, n)
		joinAt := make([]int, n)
		evictAt := make([]int, n)
		for i := 0; i < n; i++ {
			mems[i] = 1 + rng.Intn(17)    // mixed prompt lengths
			budgets[i] = 1 + rng.Intn(20) // mixed context budgets
			joinAt[i] = rng.Intn(6)       // staggered admission
			evictAt[i] = -1
			if rng.Intn(4) == 0 { // occasional client-gone eviction
				evictAt[i] = 1 + rng.Intn(8)
			}
		}
		// At least one session must join at step 0 or the run stalls.
		joinAt[0] = 0

		ragged, _, _ := newPagedGenerator(t, cfg, 4096, 0)
		perRow, _, _ := newPagedGenerator(t, cfg, 4096, 0)
		perRow.PerRowAttention = true

		got := raggedRun(t, ragged, mems, budgets, joinAt, evictAt, int64(trial)*31)
		want := raggedRun(t, perRow, mems, budgets, joinAt, evictAt, int64(trial)*31)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("trial %d session %d: ragged %v vs per-row %v", trial, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d session %d token %d: ragged %d vs per-row %d",
						trial, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestDecodeScratchPlanReuse: the decode workspace must be planned, reused
// across iterations while the (rows, Σcontext) key fits, and replanned —
// with Malloc/Free visible in device traffic — only when it grows.
func TestDecodeScratchPlanReuse(t *testing.T) {
	cfg := genTestConfig()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 9, allocator.NewBlockPool(dev, KVChunkTokens*int64(cfg.Hidden)*4, 4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*GenSession
	for i := 0; i < 3; i++ {
		s := openSession(t, g, int64(i), testMemory(int64(i), 4+i, cfg.Hidden), 24)
		sessions = append(sessions, s)
		defer s.Close()
	}
	if g.Decoder().DecodeScratchBytes() != 0 {
		t.Fatal("scratch allocated before any decode step")
	}
	if _, err := g.Step(sessions); err != nil {
		t.Fatal(err)
	}
	scratch := g.Decoder().DecodeScratchBytes()
	if scratch == 0 {
		t.Fatal("decode scratch not device-accounted")
	}
	// The workspace shows up in the same MemoryStats as the KV blocks.
	var kv int64
	for _, s := range sessions {
		kv += s.KVBytes()
	}
	if live := dev.Snapshot().LiveBytes; live != kv+scratch {
		t.Fatalf("live %d != kv %d + scratch %d", live, kv, scratch)
	}
	// Steady decode within the plan must not touch the allocator.
	before := dev.Snapshot().AllocCount
	for step := 0; step < 5; step++ {
		for _, s := range sessions {
			if s.Done() {
				t.Skip("stream ended before plan-reuse window (EOS); covered by other seeds")
			}
		}
		if _, err := g.Step(sessions); err != nil {
			t.Fatal(err)
		}
	}
	if grew := dev.Snapshot().AllocCount - before; grew != 0 {
		t.Fatalf("decode scratch reallocated %d times inside its plan", grew)
	}
}
