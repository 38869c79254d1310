package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/allocator"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// postJSON builds a recorder-level POST for driving handlers without a
// listening socket.
func postJSON(t *testing.T, path string, body interface{}) (*httptest.ResponseRecorder, *http.Request) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
}

func decodeJSON(t *testing.T, w *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.NewDecoder(w.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// pagedTestServer builds a generation server whose KV is paged through a
// block pool of kvBlocks (0 = the engine default). The cleanup closes the
// engine too, so a block leaked across the server's whole lifetime panics
// the test — the shutdown accounting check rides along for free.
func pagedTestServer(t *testing.T, genMaxBatch, kvBlocks int) (*Server, *core.GenEngine) {
	t.Helper()
	encCfg := model.BertBase().Scaled(128, 4, 512, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(128, 4, 512, 2)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5, PagedKVBlocks: kvBlocks})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration {
		return time.Duration(l*b) * 10 * time.Microsecond
	})
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      genMaxBatch,
		GenDefaultMaxNew: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		genEngine.Close() // panics if any pool block leaked
	})
	return srv, genEngine
}

// closeGenEngine closes g — the prefix cache's retired entries, then the
// block pool — and returns its memory counters, whose KV gauges must read
// zero once every session is gone. A pool block still held after the
// prefix cache is dropped is a leak: it fails t rather than panicking the
// pool's Close.
func closeGenEngine(t *testing.T, g *core.GenEngine) allocator.Snapshot {
	t.Helper()
	g.Generator.ClosePrefix()
	if n := g.Generator.BlockPool().Stats().UsedBlocks; n != 0 {
		t.Fatalf("%d KV pool blocks leaked", n)
	}
	g.Close()
	return g.MemoryStats()
}

// kvAfterClose stops srv, then closes its generation engine and returns
// the engine's memory counters (see closeGenEngine).
func kvAfterClose(t *testing.T, srv *Server) allocator.Snapshot {
	t.Helper()
	srv.Close()
	return closeGenEngine(t, srv.gen.engine)
}

// serveGen runs one generate request straight through the server's job
// path (no HTTP server needed — the recorder-level helpers below keep the
// paged tests fast and deterministic).
func serveGen(t *testing.T, srv *Server, text string, maxNew int) []int {
	t.Helper()
	w, r := postJSON(t, "/v1/generate", generateRequest{Text: text, MaxNewTokens: maxNew})
	srv.handleGenerate(w, r)
	if w.Code != 200 {
		t.Fatalf("generate %q: status %d: %s", text, w.Code, w.Body.String())
	}
	var out generateResponse
	decodeJSON(t, w, &out)
	return out.Tokens
}

// TestPagedGenerateMatchesLegacy pins the serving-level bit-identity of the
// paged path: the same prompts produce exactly the streams each prompt
// decodes to alone on a fresh engine with nothing shared (legacyGen — what
// the retired contiguous-KV server computed), repeated prompts are answered
// from the prefix cache (hits counted, replay tokens counted, no second
// encoder pass), and a longer re-ask of a cached prompt continues off the
// donated block tables — the copy-free sharing showing up in the pool's
// peak-shared gauge.
func TestPagedGenerateMatchesLegacy(t *testing.T) {
	legacy := legacyEngine(t)
	paged, genEngine := pagedTestServer(t, 8, 0)

	// A fixed-question mix: "hello"/"alpha"/"beta" decode their full budget
	// under this seed (so continuations exist to share); the rest hit EOS
	// immediately (so the born-done replay path is covered too).
	prompts := []string{"hello", "alpha", "beta", "faq question 0", "faq question 1 " + strings.Repeat("q", 5)}
	for _, p := range prompts {
		want := legacyGen(t, legacy, p, 8)
		got := serveGen(t, paged, p, 8)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("prompt %q: paged %v != legacy %v", p, got, want)
		}
	}

	// Second round: every prompt is now retired in the prefix cache, so the
	// whole round must replay — zero new encoder passes, hits counted.
	_, passesBefore, _ := genEngine.PrefillCounters()
	for _, p := range prompts {
		first := serveGen(t, paged, p, 8)
		again := serveGen(t, paged, p, 8)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("prompt %q: replay %v != first %v", p, again, first)
		}
	}
	_, passesAfter, _ := genEngine.PrefillCounters()
	if passesAfter != passesBefore {
		t.Fatalf("cached prompts ran %d encoder passes, want 0", passesAfter-passesBefore)
	}

	// Continuation: a longer budget on a cached prompt maps the retired
	// block tables (shared until copy-on-write) and extends them. The
	// extension must be bit-identical to the legacy server's longer run.
	want := legacyGen(t, legacy, prompts[0], 24)
	got := serveGen(t, paged, prompts[0], 24)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("continuation: paged %v != legacy %v", got, want)
	}
	if peak := genEngine.Generator.BlockPool().Stats().PeakShared; peak == 0 {
		t.Fatalf("continuation never shared a block (peak shared = 0)")
	}

	st := paged.statsSnapshot()
	if st.PrefixHits < int64(2*len(prompts)) {
		t.Fatalf("prefix hits %d, want >= %d", st.PrefixHits, 2*len(prompts))
	}
	if st.ReplayTokens == 0 {
		t.Fatalf("no tokens served from replay")
	}
	if st.KVBlocksTotal == 0 {
		t.Fatalf("paged stats missing kv_blocks_total")
	}
	if st.GenKVUsedBytes > st.GenKVReservedBytes {
		t.Fatalf("used %d > reserved %d", st.GenKVUsedBytes, st.GenKVReservedBytes)
	}
}

// legacyEngine builds the sharing-free reference engine: the serving
// geometry and seed of pagedTestServer, driven directly.
func legacyEngine(t *testing.T) *core.GenEngine {
	t.Helper()
	encCfg := model.BertBase().Scaled(128, 4, 512, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(128, 4, 512, 2)
	e, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// legacyGen decodes text alone on e and closes the session instead of
// retiring it, so nothing is ever replayed or shared.
func legacyGen(t *testing.T, e *core.GenEngine, text string, maxNew int) []int {
	t.Helper()
	ss, err := e.StartSessions([]int64{1}, [][]int{Tokenize(text, e.Cfg.Vocab)}, []int{maxNew})
	if err != nil {
		t.Fatal(err)
	}
	defer ss[0].Close()
	for !ss[0].Done() {
		if _, err := e.Step(ss); err != nil {
			t.Fatal(err)
		}
	}
	return append([]int(nil), ss[0].Generated()...)
}

// TestPagedPreemptionLossless squeezes two long generations through a pool
// sized for about one and a half of them: the gate admits both (admission
// is optimistic), the pool runs dry mid-decode, and the dispatcher preempts
// one — which must still complete with exactly its solo stream once
// readmitted, nothing dropped, nothing repeated.
func TestPagedPreemptionLossless(t *testing.T) {
	// 2 layers → 4 blocks per decode step worst case; a 64-token budget
	// spans 2 blocks per layer per K/V = 8 blocks per session. 12 blocks
	// admit both but cannot carry both to completion.
	srv, _ := pagedTestServer(t, 2, 12)
	pa, pb := "alpha", "beta" // both decode the full 64 tokens under this seed
	soloA := serveGen(t, srv, pa, 64)
	soloB := serveGen(t, srv, pb, 64)
	preempts := func() int64 { return srv.statsSnapshot().GenPreemptions }

	for burst := 0; burst < 20 && preempts() == 0; burst++ {
		hits := dropRetired(srv) // replays would defeat the squeeze
		var wg sync.WaitGroup
		got := make([][]int, 2)
		for i, p := range []string{pa, pb} {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				got[i] = serveGen(t, srv, p, 64)
			}(i, p)
		}
		wg.Wait()
		noReplay(t, srv, hits)
		if !reflect.DeepEqual(got[0], soloA) {
			t.Fatalf("burst %d: alpha %v != solo %v", burst, got[0], soloA)
		}
		if !reflect.DeepEqual(got[1], soloB) {
			t.Fatalf("burst %d: beta %v != solo %v", burst, got[1], soloB)
		}
	}
	if preempts() == 0 {
		t.Fatalf("pool squeeze never triggered a preemption")
	}
}

// TestPagedGaugesDrainToZero: whatever mix of fresh decodes, replays, and
// continuations ran, once the prefix cache is dropped the device KV gauges
// and the pool must account for exactly zero — the serving-level half of
// the eviction-accounting bugfix sweep.
func TestPagedGaugesDrainToZero(t *testing.T) {
	srv, genEngine := pagedTestServer(t, 4, 0)
	for i := 0; i < 6; i++ {
		serveGen(t, srv, fmt.Sprintf("drain probe %d", i%3), 8+i)
	}
	srv.Close()
	genEngine.Generator.ClosePrefix()
	if n := genEngine.Generator.BlockPool().Stats().UsedBlocks; n != 0 {
		t.Fatalf("%d blocks still held after drain", n)
	}
	mem := genEngine.MemoryStats()
	if mem.KVReservedBytes != 0 || mem.KVUsedBytes != 0 {
		t.Fatalf("KV gauges not zero after drain: reserved=%d used=%d",
			mem.KVReservedBytes, mem.KVUsedBytes)
	}
}

// TestImportSnapScavengesExactBlocks: a KV hand-off that finds the pool
// full scavenges exactly the blocks the snapshot's committed rows occupy at
// the pool's real block size — here one retired entry's worth — and no
// more: at an exact multiple of the fp32 block size, and on the fp16 route,
// whose blocks hold twice the rows.
func TestImportSnapScavengesExactBlocks(t *testing.T) {
	for _, tc := range []struct {
		fp16 bool
		rows int
	}{{false, model.KVChunkTokens}, {true, model.KVChunkTokens + 8}} {
		encCfg := model.BertBase().Scaled(32, 2, 64, 1)
		decCfg := model.Seq2SeqDecoder().Scaled(32, 2, 64, 1)
		const entries = 3
		perEntry := 2 * decCfg.Layers // one K and one V block per layer
		e, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5, FP16: tc.fp16, PagedKVBlocks: entries * perEntry})
		if err != nil {
			t.Fatal(err)
		}
		// Fill the pool with retired generations, one block per table each.
		for i := 0; i < entries; i++ {
			ss, err := e.StartSessions([]int64{int64(i)}, [][]int{{10 + i, 11, 12}}, []int{2})
			if err != nil {
				t.Fatal(err)
			}
			for !ss[0].Done() {
				if _, err := e.Step(ss); err != nil {
					t.Fatal(err)
				}
			}
			e.Retire(ss[0])
		}
		if free, st := e.Generator.BlockPool().FreeBlocks(), e.Generator.PrefixStats(); free != 0 || st.KVBlocks != entries*perEntry {
			t.Fatalf("fp16=%v: setup left %d free blocks, %d retired", tc.fp16, free, st.KVBlocks)
		}

		h, layers := decCfg.Hidden, decCfg.Layers
		snap := &model.SessionSnapshot{
			ID: 99, Prompt: []int{99}, Toks: make([]int, tc.rows), Next: 5, Pos: tc.rows,
			MaxNew: tc.rows + 4, Half: tc.fp16, Hidden: h, Layers: layers, SrcLen: 3, KVLen: tc.rows,
		}
		for l := 0; l < layers; l++ {
			if tc.fp16 {
				snap.CrossKH = append(snap.CrossKH, make([]uint16, 3*h))
				snap.CrossVH = append(snap.CrossVH, make([]uint16, 3*h))
				snap.SelfKH = append(snap.SelfKH, make([]uint16, tc.rows*h))
				snap.SelfVH = append(snap.SelfVH, make([]uint16, tc.rows*h))
			} else {
				snap.CrossK = append(snap.CrossK, make([]float32, 3*h))
				snap.CrossV = append(snap.CrossV, make([]float32, 3*h))
				snap.SelfK = append(snap.SelfK, make([]float32, tc.rows*h))
				snap.SelfV = append(snap.SelfV, make([]float32, tc.rows*h))
			}
		}
		j := newJob(99, JobGenerate, snap.Prompt, context.Background(), time.Time{})
		j.snap = snap
		d := &genDispatcher{engine: e}
		lg, err := d.importSnap(99, j)
		if err != nil {
			t.Fatalf("fp16=%v: import after scavenge: %v", tc.fp16, err)
		}
		if st := e.Generator.PrefixStats(); st.KVEntries != entries-1 {
			t.Fatalf("fp16=%v: %d-row import scavenged %d retired entries, want exactly 1",
				tc.fp16, tc.rows, entries-st.KVEntries)
		}
		lg.sess.Close()
		j.Cancel()
		e.Close()
	}
}
