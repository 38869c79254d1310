package model

import (
	"testing"

	"repro/internal/allocator"
	"repro/internal/tensor"
)

func genTestConfig() Config {
	cfg := Seq2SeqDecoder()
	cfg.Hidden, cfg.Heads, cfg.Inter, cfg.Layers = 32, 4, 64, 2
	cfg.Vocab = 64
	cfg.MaxTargetLen = 32
	return cfg
}

func testMemory(seed int64, srcLen, hidden int) *tensor.Tensor {
	return tensor.RandN(seed, 0.3, srcLen, hidden)
}

// newTestGenerator builds a generator (seed 42) over its own device and a
// pool of capBlocks blocks holding blockRows KV rows each on the chosen
// numeric route.
func newTestGenerator(t *testing.T, cfg Config, blockRows, capBlocks, prefixCap int, fp16 bool) (*Generator, *allocator.Device, *allocator.BlockPool) {
	t.Helper()
	elem := int64(4)
	if fp16 {
		elem = 2
	}
	dev := allocator.NewDevice()
	pool := allocator.NewBlockPool(dev, int64(blockRows)*int64(cfg.Hidden)*elem, capBlocks)
	g, err := NewGenerator(cfg, 42, pool, prefixCap)
	if err != nil {
		t.Fatal(err)
	}
	if fp16 {
		g.EnableFP16()
	}
	return g, dev, pool
}

// openSession opens a session over memory with a prompt unique to id.
// Nothing in these tests retires such sessions, so the prefix cache never
// answers them.
func openSession(t *testing.T, g *Generator, id int64, memory *tensor.Tensor, maxNew int) *GenSession {
	t.Helper()
	s, err := g.NewPagedSession(id, []int{int(id)}, memory, maxNew)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drain runs a single session to completion and returns its tokens.
func drain(t *testing.T, g *Generator, sess *GenSession) []int {
	t.Helper()
	for !sess.Done() {
		if _, err := g.Step([]*GenSession{sess}); err != nil {
			t.Fatal(err)
		}
	}
	return append([]int(nil), sess.Generated()...)
}

// TestGeneratorMatchesGreedy: the iteration-level path must produce the
// same token stream as the one-shot beam-1 decoder over the same weights.
func TestGeneratorMatchesGreedy(t *testing.T) {
	cfg := genTestConfig()
	for _, blockRows := range []int{1, KVChunkTokens} {
		g, _, _ := newTestGenerator(t, cfg, blockRows, 4096, 0, false)
		mem := testMemory(7, 9, cfg.Hidden)

		sess := openSession(t, g, 1, mem, 16)
		got := drain(t, g, sess)
		sess.Close()

		hyp, err := g.Decoder().Greedy(mem, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("no tokens generated")
		}
		if len(got) != len(hyp.Tokens) {
			t.Fatalf("block %d: generator %v vs greedy %v", blockRows, got, hyp.Tokens)
		}
		for i := range got {
			if got[i] != hyp.Tokens[i] {
				t.Fatalf("block %d token %d: generator %d vs greedy %d", blockRows, i, got[i], hyp.Tokens[i])
			}
		}
	}
}

// TestGeneratorBatchedMatchesSolo is the continuous-batching correctness
// invariant: a request's stream is bit-identical whether it decodes alone
// or raggedly batched with strangers that join and leave mid-flight.
func TestGeneratorBatchedMatchesSolo(t *testing.T) {
	cfg := genTestConfig()
	g, dev, pool := newPagedGenerator(t, cfg, 4096, 0)
	mems := []*tensor.Tensor{
		testMemory(1, 5, cfg.Hidden),
		testMemory(2, 13, cfg.Hidden),
		testMemory(3, 8, cfg.Hidden),
	}
	budgets := []int{6, 14, 10}

	// Reference streams: each request alone.
	solo := make([][]int, len(mems))
	for i, mem := range mems {
		sess := openSession(t, g, int64(100+i), mem, budgets[i])
		solo[i] = drain(t, g, sess)
		sess.Close()
	}

	// Ragged run: session 0 starts alone, 1 joins after two iterations,
	// 2 joins after four; everyone leaves when done.
	sessions := make([]*GenSession, len(mems))
	var live []*GenSession
	step := 0
	joinAt := map[int]int{0: 0, 1: 2, 2: 4}
	for {
		for i, at := range joinAt {
			if at == step {
				s := openSession(t, g, int64(i), mems[i], budgets[i])
				sessions[i] = s
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			break
		}
		if _, err := g.Step(live); err != nil {
			t.Fatal(err)
		}
		kept := live[:0]
		for _, s := range live {
			if !s.Done() {
				kept = append(kept, s)
			}
		}
		live = kept
		step++
		if step > 64 {
			t.Fatal("ragged run did not terminate")
		}
	}
	for i, s := range sessions {
		got := s.Generated()
		if len(got) != len(solo[i]) {
			t.Fatalf("session %d: batched %v vs solo %v", i, got, solo[i])
		}
		for j := range got {
			if got[j] != solo[i][j] {
				t.Fatalf("session %d token %d: batched %d vs solo %d", i, j, got[j], solo[i][j])
			}
		}
		s.Close()
	}
	// After all sessions close and the pool returns its blocks, only the
	// plan-reused decode workspace stays live; every KV byte (and both KV
	// gauges) must be back to zero.
	pool.Close()
	snap := dev.Snapshot()
	if want := g.Decoder().DecodeScratchBytes(); snap.LiveBytes != want {
		t.Fatalf("KV memory leaked: %d live bytes, want only the %d-byte decode scratch", snap.LiveBytes, want)
	}
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("KV gauges not released: reserved=%d used=%d", snap.KVReservedBytes, snap.KVUsedBytes)
	}
}

// TestSessionBudgetReservation: the pool is the up-front KV reservation.
// Once a first session has carved the blocks its budget spans, a second
// session decoding the same budget over the recycled blocks — and the
// decode workspace, whose plan covers the whole budget's context growth —
// must never touch the allocator.
func TestSessionBudgetReservation(t *testing.T) {
	cfg := genTestConfig()
	cfg.MaxTargetLen = 2 * KVChunkTokens
	g, dev, _ := newPagedGenerator(t, cfg, 4096, 0)
	mem := testMemory(4, 6, cfg.Hidden)
	warm := openSession(t, g, 1, mem, cfg.MaxTargetLen)
	drain(t, g, warm)
	warm.Close()

	sess := openSession(t, g, 2, mem, cfg.MaxTargetLen)
	defer sess.Close()
	before := dev.Snapshot().AllocCount
	drain(t, g, sess)
	if grew := dev.Snapshot().AllocCount - before; grew != 0 {
		t.Fatalf("KV or scratch allocated %d times mid-generation over a warm pool", grew)
	}
}
