package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

func genEngineCfgs() (model.Config, model.Config) {
	encCfg := model.BertBase().Scaled(32, 4, 64, 2)
	decCfg := model.Seq2SeqDecoder()
	decCfg.Hidden, decCfg.Heads, decCfg.Inter, decCfg.Layers = 32, 4, 64, 2
	decCfg.Vocab = 64
	decCfg.MaxTargetLen = 24
	return encCfg, decCfg
}

func fuzzPrompts(rng *rand.Rand, n, vocab int) [][]int {
	prompts := make([][]int, n)
	for i := range prompts {
		p := make([]int, 1+rng.Intn(15))
		for j := range p {
			p[j] = 3 + rng.Intn(vocab-3)
		}
		prompts[i] = p
	}
	return prompts
}

// drainEngine runs sessions to completion with continuous ragged stepping
// (finished sessions leave between iterations) and returns each stream.
func drainEngine(t *testing.T, e *GenEngine, sessions []*model.GenSession) map[int64][]int {
	t.Helper()
	streams := make(map[int64][]int, len(sessions))
	live := append([]*model.GenSession(nil), sessions...)
	for steps := 0; len(live) > 0; steps++ {
		if steps > 512 {
			t.Fatal("decode did not terminate")
		}
		if _, err := e.Step(live); err != nil {
			t.Fatal(err)
		}
		kept := live[:0]
		for _, s := range live {
			if s.Done() {
				streams[s.ID] = append([]int(nil), s.Generated()...)
				s.Close()
				continue
			}
			kept = append(kept, s)
		}
		live = kept
	}
	return streams
}

// TestStartSessionsSinglePackedPass: N admitted prompts must prefill as ONE
// packed encoder pass, asserted via the prefill token counters, and produce
// sessions whose streams are bit-identical to the padded per-prompt oracle.
func TestStartSessionsSinglePackedPass(t *testing.T) {
	encCfg, decCfg := genEngineCfgs()
	rng := rand.New(rand.NewSource(77))
	prompts := fuzzPrompts(rng, 5, encCfg.Vocab)
	total := 0
	for _, p := range prompts {
		total += len(p)
	}
	ids := []int64{0, 1, 2, 3, 4}
	budgets := []int{4, 9, 16, 2, 12}

	packed, err := NewGenEngine(encCfg, decCfg, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := packed.StartSessions(ids, prompts, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if nProm, passes, toks := packed.PrefillCounters(); nProm != 5 || passes != 1 || toks != int64(total) {
		t.Fatalf("prefill counters after one batch: prompts=%d passes=%d tokens=%d, want 5/1/%d",
			nProm, passes, toks, total)
	}
	got := drainEngine(t, packed, sessions)

	// Padded oracle: same engine seed, one StartSession per prompt.
	oracle, err := NewGenEngine(encCfg, decCfg, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	oracle.Generator.PerRowAttention = true
	for i, p := range prompts {
		sess, err := oracle.StartSession(ids[i], p, budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		want := drainEngine(t, oracle, []*model.GenSession{sess})[ids[i]]
		if !reflect.DeepEqual(got[ids[i]], want) {
			t.Fatalf("prompt %d: packed-prefill ragged stream %v vs padded per-row oracle %v", i, got[ids[i]], want)
		}
	}
	if nProm, passes, _ := oracle.PrefillCounters(); nProm != 5 || passes != 5 {
		t.Fatalf("oracle counters: prompts=%d passes=%d, want 5/5", nProm, passes)
	}
}

// TestRaggedEnginePropertyFuzz is the engine-level acceptance property:
// packed batched prefill + grouped ragged decode must be bit-identical to
// padded per-prompt prefill + per-row decode attention, on fuzzed mixed
// prompt/budget sets with mid-run admit/evict, under both the fused and the
// unfused encoder graph.
func TestRaggedEnginePropertyFuzz(t *testing.T) {
	encCfg, decCfg := genEngineCfgs()
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for _, unfused := range []bool{false, true} {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(300 + trial)))
			n := 1 + rng.Intn(5)
			prompts := fuzzPrompts(rng, n, encCfg.Vocab)
			ids := make([]int64, n)
			budgets := make([]int, n)
			joinAt := make([]int, n)
			for i := range prompts {
				ids[i] = int64(i)
				budgets[i] = 1 + rng.Intn(16)
				joinAt[i] = rng.Intn(4) * 2
			}
			joinAt[0] = 0

			run := func(e *GenEngine, batchedPrefill bool) [][]int {
				streams := make([][]int, n)
				var live []*model.GenSession
				started := 0
				for step := 0; started < n || len(live) > 0; step++ {
					if step > 512 {
						t.Fatal("fuzz run did not terminate")
					}
					// Admit this step's joiners — as one packed batch or as
					// padded singletons (the oracle).
					var bIds []int64
					var bPrompts [][]int
					var bBudgets []int
					for i := 0; i < n; i++ {
						if joinAt[i] == step {
							bIds = append(bIds, ids[i])
							bPrompts = append(bPrompts, prompts[i])
							bBudgets = append(bBudgets, budgets[i])
						}
					}
					if len(bIds) > 0 {
						started += len(bIds)
						if batchedPrefill {
							sessions, err := e.StartSessions(bIds, bPrompts, bBudgets)
							if err != nil {
								t.Fatal(err)
							}
							live = append(live, sessions...)
						} else {
							for i := range bIds {
								s, err := e.StartSession(bIds[i], bPrompts[i], bBudgets[i])
								if err != nil {
									t.Fatal(err)
								}
								live = append(live, s)
							}
						}
					}
					if len(live) == 0 {
						continue
					}
					if _, err := e.Step(live); err != nil {
						t.Fatal(err)
					}
					kept := live[:0]
					for _, s := range live {
						if s.Done() {
							streams[s.ID] = append([]int(nil), s.Generated()...)
							s.Close()
							continue
						}
						kept = append(kept, s)
					}
					live = kept
				}
				return streams
			}

			opts := Options{Seed: 5, Unfused: unfused}
			ragged, err := NewGenEngine(encCfg, decCfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewGenEngine(encCfg, decCfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			oracle.Generator.PerRowAttention = true
			got := run(ragged, true)
			want := run(oracle, false)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("unfused=%v trial %d session %d: ragged %v vs oracle %v",
						unfused, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStartSessionsValidates: shape errors must fail the whole batch
// without leaking sessions.
func TestStartSessionsValidates(t *testing.T) {
	encCfg, decCfg := genEngineCfgs()
	e, err := NewGenEngine(encCfg, decCfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartSessions([]int64{1}, [][]int{{3, 4}, {5}}, []int{4}); err == nil {
		t.Fatal("id/prompt count mismatch accepted")
	}
	if _, err := e.StartSessions([]int64{1, 2}, [][]int{{3, 4}, {}}, []int{4}); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, err := e.StartSessions([]int64{1, 2}, [][]int{{3}, {4}}, []int{4, 5, 6}); err == nil {
		t.Fatal("budget count mismatch accepted")
	}
	if sessions, err := e.StartSessions(nil, nil, nil); err != nil || sessions != nil {
		t.Fatalf("empty batch: %v %v", sessions, err)
	}
	if live := e.MemoryStats().KVReservedBytes; live != 0 {
		t.Fatalf("failed batches leaked %d reserved KV bytes", live)
	}
}
