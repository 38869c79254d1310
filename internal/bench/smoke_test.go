package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestBenchSmoke is the CI wiring guard (run alone as
// `go test -run TestBenchSmoke ./internal/bench`): every registered
// experiment must resolve through the registry, and the var-length
// experiment must run end-to-end on a tiny geometry — so the packed-vs-
// padded harness can't silently rot between full benchmark runs.
func TestBenchSmoke(t *testing.T) {
	for _, e := range All() {
		got, ok := ByID(e.ID)
		if !ok || got.Run == nil || got.Title == "" {
			t.Fatalf("experiment %s does not resolve through the registry", e.ID)
		}
	}

	var buf bytes.Buffer
	tiny := varLengthParams{hidden: 16, heads: 2, inter: 32, layers: 1, batch: 4, maxLen: 12, reps: 1}
	if err := runVarLengthWith(&buf, tiny); err != nil {
		t.Fatalf("var-length (tiny): %v", err)
	}
	out := buf.String()
	for _, want := range []string{"uniform", "short-skewed", "bimodal", "speedup", "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("var-length output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("packed path diverged from the padded oracle:\n%s", out)
	}

	// Same wiring guard for the ragged decode experiment: a tiny geometry
	// must run end-to-end with the grouped path bit-identical to the
	// per-row oracle (timing verdicts are checked by the full-size test).
	buf.Reset()
	tinyGen := genDecodeParams{
		hidden: 16, heads: 2, inter: 32, layers: 1, vocab: 32,
		promptLo: 2, promptHi: 8, warm: 2, steps: 4, reps: 1,
		batches: []int{1, 2},
	}
	if err := runGenDecodeWith(&buf, tinyGen); err != nil {
		t.Fatalf("gen-decode (tiny): %v", err)
	}
	out = buf.String()
	for _, want := range []string{"batch", "ragged", "per-row", "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gen-decode output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("grouped decode diverged from the per-row oracle:\n%s", out)
	}

	// Wiring guard for the paged-KV / prefix-cache harness: a tiny run must
	// exercise the probe, the fixed-question server, the replay identity
	// checks, and the reserved-vs-used snapshot end to end (the sharing
	// verdict is enforced by the full-size test — a tiny geometry's streams
	// may be too short to share blocks).
	buf.Reset()
	tinyPrefix := prefixCacheParams{
		hidden: 16, heads: 2, inter: 32, layers: 1,
		candidates: 6, questions: 3, rounds: 3,
		maxNew: 6, contNew: 10,
		maxBatch: 4, workers: 4,
		gapN: 4, gapMaxNew: 12,
		seed: 5,
	}
	if err := runPrefixCacheWith(&buf, tinyPrefix); err != nil {
		t.Fatalf("prefix-cache (tiny): %v", err)
	}
	out = buf.String()
	for _, want := range []string{"fixed-question", "prefix-hits", "reserved-vs-used", "overcommit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("prefix-cache output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("paged path diverged from the greedy oracle:\n%s", out)
	}

	// Wiring guard for the fp16 fast path: a tiny geometry must run the
	// measured decode loop, the device-model pricing, the KV-halving and
	// block-capacity accounting, the fused-chain counters, and the encoder
	// tolerance sweep end to end, with every verdict green (the full-size
	// run only changes the measured magnitudes, not the exact accounting
	// the gates check).
	buf.Reset()
	tinyFP16 := fp16PathParams{
		gen: genDecodeParams{
			hidden: 16, heads: 2, inter: 32, layers: 1, vocab: 32,
			promptLo: 2, promptHi: 8, warm: 2, steps: 4, reps: 1,
			batches: []int{1, 4},
		},
		tolBatch: 3, tolTrials: 2,
	}
	if err := runFP16PathWith(&buf, tinyFP16); err != nil {
		t.Fatalf("fp16-path (tiny): %v", err)
	}
	out = buf.String()
	for _, want := range []string{"gemm speedup", "KV bytes/token", "paged-KV capacity", "fused launch", "tolerance", "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fp16-path output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") || strings.Contains(out, "DIVERGED") {
		t.Fatalf("fp16-path (tiny) verdict failed:\n%s", out)
	}

	// Wiring guard for the replica-routing harness: a tiny 2-replica run
	// must exercise the live router under every policy, the single-replica
	// overhead guard, and the cluster-simulator shape check end to end
	// (performance verdicts are enforced by the full-size test).
	buf.Reset()
	tinyRouting := replicaRoutingParams{
		hidden: 16, heads: 2, inter: 32, layers: 1,
		replicas: 2, n: 24,
		shortLo: 2, shortHi: 6, longLen: 16, longFrac: 0.15,
		util: 0.7, reps: 1, seed: 3,
	}
	if err := runReplicaRoutingWith(&buf, tinyRouting); err != nil {
		t.Fatalf("replica-routing (tiny): %v", err)
	}
	out = buf.String()
	for _, want := range []string{"short-skewed", "bimodal", "round-robin", "least-queue", "token-cost", "p99", "single-replica overhead", "sim shape"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replica-routing output missing %q:\n%s", want, out)
		}
	}

	// Wiring guard for the prefill/decode disaggregation harness: a tiny
	// bimodal run must exercise both role conditions end to end — real KV
	// hand-offs with exact in==out accounting, zero post-drain gauges,
	// streams bit-identical to the single-replica oracle, and the
	// simulator's two-phase generation path (the sim p99 verdict is
	// enforced by the full-size test; a tiny trace's tail is too thin to
	// gate on).
	buf.Reset()
	tinyDisagg := disaggParams{
		hidden: 16, heads: 2, inter: 32, layers: 1,
		n:       24,
		shortLo: 2, shortHi: 6,
		genPrompt: 10, genMaxNew: 8, genFrac: 0.25,
		util: 0.7, reps: 1, seed: 11,
	}
	if err := runDisaggRoutingWith(&buf, tinyDisagg); err != nil {
		t.Fatalf("disagg-routing (tiny): %v", err)
	}
	out = buf.String()
	for _, want := range []string{"all-mixed", "prefill+decode", "hand-off accounting", "stream identity", "sim shape"} {
		if !strings.Contains(out, want) {
			t.Fatalf("disagg-routing output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("migrated streams diverged from the single-replica oracle:\n%s", out)
	}
	if strings.Contains(out, "hand-off accounting: in−out delta") || strings.Contains(out, "NO MIGRATIONS") {
		t.Fatalf("disagg-routing hand-off accounting failed:\n%s", out)
	}

	// Wiring guard for the elastic autoscaling harness: a tiny flash-crowd
	// trace must drive the hysteresis controller end to end — scale-ups,
	// drain-then-retire scale-downs, and EXACT job accounting on every
	// fleet (the Pareto headline and economy verdicts are enforced by the
	// full-size test; a tiny trace's tail is too thin to gate on).
	buf.Reset()
	tinyAuto := autoscaleParams{
		min: 1, max: 2,
		base: 100, peak: 1200,
		crowdAt: 3, rampUp: 1, hold: 3, rampDown: 1,
		duration:    10,
		deadlineSec: 0.5,
		lenLo:       2, lenHi: 20,
		maxBatch: 8,
		seed:     7,
	}
	if err := runAutoscaleWith(&buf, tinyAuto); err != nil {
		t.Fatalf("autoscale (tiny): %v", err)
	}
	out = buf.String()
	for _, want := range []string{"auto-1..2", "fixed-1", "fixed-2", "accounting", "elasticity", "headline", "economy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("autoscale output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "jobs lost") {
		t.Fatalf("autoscale lost jobs across scale events:\n%s", out)
	}
	if !strings.Contains(out, "accounting: arrivals == served + expired on every fleet, 0 lost → PASS") {
		t.Fatalf("autoscale accounting did not reconcile:\n%s", out)
	}
}

// TestReplicaRoutingExperiment runs the full-size routing artefact
// (skipped in -short CI where TestBenchSmoke covers the wiring) and
// enforces the PR-5 acceptance claims: token-cost routing beats
// round-robin on p99 latency under short-skewed traffic with ≥2 replicas,
// the one-replica router costs no throughput against the bare server, and
// the cluster simulator agrees on the shape.
func TestReplicaRoutingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "replica-routing")
	if strings.Contains(out, "FAIL") {
		t.Fatalf("replica-routing verdict failed:\n%s", out)
	}
	for _, want := range []string{"→ PASS", "sim shape"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replica-routing output missing %q:\n%s", want, out)
		}
	}
}

// TestDisaggRoutingExperiment runs the full-size disaggregation artefact
// (skipped in -short CI where TestBenchSmoke covers the wiring) and
// enforces the PR-8 acceptance claims: on the deterministic virtual-clock
// simulator (which models per-replica serial compute — in-process live
// replicas share one machine's cores, so their wall-clock tails are
// informational only) roles [prefill, decode] beat all-mixed on the
// short-classify p99 while long generations saturate the decode replica;
// the live run must not shed load the mixed fleet absorbed; migrated
// streams stay bit-identical to the single-replica oracle; and the
// hand-off byte accounting reconciles exactly (in == out, zero
// post-drain KV gauges).
func TestDisaggRoutingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "disagg-routing")
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("migrated streams diverged from the single-replica oracle:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("disagg-routing verdict failed:\n%s", out)
	}
	for _, want := range []string{"hand-off accounting", "→ PASS", "sim shape"} {
		if !strings.Contains(out, want) {
			t.Fatalf("disagg-routing output missing %q:\n%s", want, out)
		}
	}
}

// TestPrefixCacheExperiment runs the full-size paged-KV artefact (skipped
// in -short CI where TestBenchSmoke covers the wiring) and enforces its
// claims: the fixed-question workload hits the prefix cache, shares blocks
// (peak-shared > 0), fails no request, and streams bit-identically to the
// greedy oracle; the reserved-vs-used overcommit ratio is reported.
func TestPrefixCacheExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "prefix-cache")
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("paged path diverged from the greedy oracle:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("prefix-cache verdict failed:\n%s", out)
	}
	for _, want := range []string{"→ PASS", "overcommit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("prefix-cache output missing %q:\n%s", want, out)
		}
	}
}

// TestGenDecodeExperiment runs the full-size ragged-decode artefact
// (skipped in -short CI where TestBenchSmoke covers the wiring) and
// enforces the headline claims: per-token decode wall-clock improves with
// batch size under the grouped path, no regression at batch=1, and the
// grouped kernels stay bit-identical to the per-row oracle.
func TestGenDecodeExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "gen-decode")
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("grouped decode diverged from the per-row oracle:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("gen-decode verdict failed:\n%s", out)
	}
}

// TestFP16PathExperiment runs the full-size fp16 artefact (skipped in
// -short CI where TestBenchSmoke covers the wiring) and enforces the PR-7
// acceptance claims: modeled GEMM speedup ≥2× at batch ≥4 on the decode
// loop, KV bytes/token exactly halved with block capacity doubled, fused
// launch chains firing on both the packed encoder and the grouped decode,
// the grouped fp16 path bit-identical to its per-row oracle, and fp16
// outputs within the documented tolerance of fp32 (but not bit-equal).
func TestFP16PathExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "fp16-path")
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("fp16 grouped decode diverged from the per-row oracle:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("fp16-path verdict failed:\n%s", out)
	}
}

// TestAutoscaleExperiment runs the full-size elastic autoscaling artefact
// (skipped in -short CI where TestBenchSmoke covers the wiring) and
// enforces the PR-9 acceptance claims on the deterministic virtual-clock
// simulator: exact job accounting across every fleet (zero lost through
// scale-downs), real scale-ups AND scale-downs inside bounds, the
// autoscaler Pareto-beating every fixed fleet its average bill could buy
// on miss-rate and p99, and a strictly smaller replica-seconds bill than
// the peak-pinned fleet.
func TestAutoscaleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "autoscale")
	if strings.Contains(out, "FAIL") {
		t.Fatalf("autoscale verdict failed:\n%s", out)
	}
	for _, want := range []string{"accounting", "elasticity", "headline", "economy", "→ PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("autoscale output missing %q:\n%s", want, out)
		}
	}
}

// TestVarLengthExperiment runs the full-size artefact (skipped in -short
// CI where TestBenchSmoke covers the wiring) and enforces the headline
// claim: ≥1.5× on the short-skewed distribution, bit-identical oracle.
func TestVarLengthExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBenchSmoke covers the wiring")
	}
	out := runExperiment(t, "var-length")
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("packed path diverged from the padded oracle:\n%s", out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("short-skewed speedup below target:\n%s", out)
	}
}
