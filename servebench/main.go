// Command servebench is the repository's serving benchmark. Each run
// starts the one served configuration (two replicas behind the Router, see
// served.go) in-process, drives it with a seeded open-loop workload
// through Handler().ServeHTTP — no sockets — checks every answer against
// a solo reference, reconciles the client's counts with /v1/stats, and
// prints its metrics by name.
//
//	servebench --workload generate-unique --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans, samples /v1/stats, replays the run's shapes into core,
// blas and kernels, and prints the per-layer metrics. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	turbo "repro"
	"repro/internal/allocator"
)

// setups is how many times a run sets the service up; setup_s is the
// median.
const setups = 3

// drainLimit bounds how long the loop waits for requests still open when
// the last one was sent.
const drainLimit = 90 * time.Second

// outDir holds traces, reports and the untraced runs' end-to-end records
// the traced run compares itself against.
const outDir = ".bench_out"

func main() {
	wlName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "how long the open loop sends")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if err := run(*wlName, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

type report struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func run(wlName string, seed int64, seconds int, traced bool) error {
	wl, err := workloadByName(wlName)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	reqs := wl.generate(seed, float64(seconds))
	if len(reqs) == 0 {
		return fmt.Errorf("workload %s produced no requests in %ds", wl.name, seconds)
	}

	var tr *tracer
	var wrap func(turbo.Scheduler) turbo.Scheduler
	if traced {
		tr = &tracer{}
		wrap = tr.wrap
	}

	// Set-up 1 serves the run; set-ups 2.. are timed after it.
	var setupTimes []float64
	start := time.Now()
	srv, err := setUp(wrap)
	if err != nil {
		return err
	}
	setupTimes = append(setupTimes, time.Since(start).Seconds())

	ph := measure(srv, reqs, tr)
	if err := srv.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv = nil
	runtime.GC()
	for len(setupTimes) < setups {
		start := time.Now()
		s, err := setUp(nil)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if err := s.stop(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}

	bad, err := checkOutputs(reqs, ph.outs)
	if err != nil {
		return err
	}
	bad = append(bad, reconcile(ph.tally, ph.before, ph.after)...)
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", b)
	}
	shown := 0
	for i := range reqs {
		if o := &ph.outs[i]; !o.ok && shown < 5 {
			fmt.Fprintf(os.Stderr, "request %d (%s) failed: %s\n", reqs[i].id, reqs[i].kind, o.errMsg)
			shown++
		}
	}

	e2e := endToEnd(reqs, ph, setupTimes)
	missing := unmeasured(e2e)
	key := runKey{Build: buildID(), Seconds: seconds}
	var out []metric
	if traced {
		out, err = perLayer(wl, seed, key, reqs, ph, tr, e2e)
		if err != nil {
			return err
		}
		missing = append(missing, unmeasured(out)...)
	} else {
		out = e2e
		if err := recordE2E(wl.name, seed, key, e2e); err != nil {
			fmt.Fprintln(os.Stderr, "servebench: could not record end-to-end metrics:", err)
		}
	}

	fmt.Printf("workload %s seed %d: %d requests over %ds (%d classify, %d generate), %d failed\n",
		wl.name, seed, len(reqs), seconds, ph.tally.sent[kindClassify], ph.tally.sent[kindGenerate],
		ph.tally.failed[kindClassify]+ph.tally.failed[kindGenerate])
	printTable(os.Stdout, out)
	for _, b := range missing {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", b)
	}
	bad = append(bad, missing...)
	rep := report{
		Correct:   len(bad) == 0,
		Attempted: len(reqs),
		Failed:    ph.tally.failed[kindClassify] + ph.tally.failed[kindGenerate],
		Metrics:   map[string]map[string]any{},
	}
	for _, m := range out {
		v := m.value
		if math.IsNaN(v) { // JSON has no NaN; the run is already failed
			v = 0
		}
		rep.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// unmeasured names the metrics without samples (every request of their
// kind failed): they have no value, and any number reported for them
// would read as a result, so they fail the run.
func unmeasured(ms []metric) []string {
	var bad []string
	for _, m := range ms {
		if math.IsNaN(m.value) {
			bad = append(bad, m.name+" has no samples")
		}
	}
	return bad
}

// phase is what the serving phase of a run measured.
type phase struct {
	res           []result
	outs          []outcome
	tally         tally
	before, after turbo.RouterStats
	cpu           time.Duration // process CPU over the serving phase
	rssPeakMiB    float64       // process peak RSS by the end of serving
	rtBefore      runtimeSample
	rtAfter       runtimeSample
	// Replica 0's two devices (classify engine + generation engine),
	// summed.
	memBefore, memAfter allocator.Snapshot
}

// measure drives the open loop through the served handler and collects
// the counters around it.
func measure(srv *served, reqs []request, tr *tracer) *phase {
	ph := &phase{before: srv.router.Stats(), rtBefore: readRuntime(), memBefore: replica0Memory(srv)}
	cpu0 := cpuTime()
	origin := time.Now()
	now := wallClock(origin)
	if tr != nil {
		tr.now = now
	}
	var stop chan struct{}
	done := make(chan struct{})
	if tr != nil {
		stop = make(chan struct{})
		go func() {
			defer close(done)
			tr.sample(srv.router, 50*time.Millisecond, stop)
		}()
	} else {
		close(done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), reqs[len(reqs)-1].due+drainLimit)
	defer cancel()
	ph.res = openLoop(ctx, srv.handler, reqs, now)
	ph.after = waitIdle(srv.router, 5*time.Second)
	if stop != nil {
		close(stop)
	}
	<-done
	ph.cpu = cpuTime() - cpu0
	ph.rtAfter = readRuntime()
	ph.memAfter = replica0Memory(srv)
	ph.rssPeakMiB = maxRSSMiB()

	ph.outs = make([]outcome, len(reqs))
	for i := range reqs {
		ph.outs[i] = parse(&reqs[i], &ph.res[i])
		if tr != nil {
			tr.request(&reqs[i], &ph.res[i], &ph.outs[i])
		}
	}
	ph.tally = count(reqs, ph.res, ph.outs)
	return ph
}

// replica0Memory sums the device counters of replica 0's engines.
func replica0Memory(srv *served) allocator.Snapshot {
	c, g := srv.rt.Engine.MemoryStats(), srv.rt.GenEngine.MemoryStats()
	return allocator.Snapshot{
		LiveBytes:  c.LiveBytes + g.LiveBytes,
		PeakBytes:  c.PeakBytes + g.PeakBytes,
		AllocCount: c.AllocCount + g.AllocCount,
		FreeCount:  c.FreeCount + g.FreeCount,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set so far (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runKey says which untraced runs a traced run may be compared with: the
// same binary at the same run length.
type runKey struct {
	Build   string `json:"build"`
	Seconds int    `json:"seconds"`
}

// e2eRecord is one line of .bench_out/e2e-<workload>.jsonl.
type e2eRecord struct {
	runKey
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// buildID is a hash of the running binary ("" when it cannot be read).
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// recordE2E appends an untraced run's end-to-end metrics to the
// workload's record, which the traced run reads to report its overhead.
func recordE2E(wl string, seed int64, key runKey, ms []metric) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := e2eRecord{runKey: key, Seed: seed, Metrics: map[string]float64{}}
	for _, m := range ms {
		rec.Metrics[m.name] = m.value
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "e2e-"+wl+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
