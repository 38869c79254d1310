package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"
)

// serialHandler answers one request at a time, like a single busy worker;
// the first request it sees stalls for stall.
func serialHandler(stall time.Duration) http.Handler {
	var mu sync.Mutex
	first := true
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		fmt.Fprintln(w, `{"class":1}`)
	})
}

func classifyReqs(n int, every time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{id: i, kind: kindClassify, due: time.Duration(i) * every, text: "x"}
	}
	return reqs
}

func latencies(reqs []request, res []result) []time.Duration {
	out := make([]time.Duration, len(reqs))
	for i := range reqs {
		o := parse(&reqs[i], &res[i])
		out[i] = o.ttft(&reqs[i])
	}
	return out
}

// A stall in the server must show in the due-time latency of every request
// queued behind it: request i, due at i·10ms, cannot be answered before
// the stall ends at 150ms.
func TestStallRaisesDueTimeLatencyBehindIt(t *testing.T) {
	const stall = 150 * time.Millisecond
	reqs := classifyReqs(20, 10*time.Millisecond)
	res := openLoop(context.Background(), serialHandler(stall), reqs, wallClock(time.Now()))
	lat := latencies(reqs, res)
	for i, q := range reqs {
		if q.due >= stall {
			break
		}
		if floor := stall - q.due; lat[i] < floor {
			t.Errorf("request %d due at %v: latency %v, want at least %v (it waited behind the stall)", i, q.due, lat[i], floor)
		}
	}

	calm := openLoop(context.Background(), serialHandler(0), reqs, wallClock(time.Now()))
	if got := latencies(reqs, calm)[1]; got >= 100*time.Millisecond {
		t.Errorf("without a stall request 1 took %v", got)
	}
}

// A generator that falls behind reports its lag, and the requests it sent
// late still count their latency from when they were due.
func TestLateGeneratorCountsFromDueTime(t *testing.T) {
	const late = 80 * time.Millisecond
	origin := time.Now()
	behind := func() time.Duration { return time.Since(origin) + late }
	reqs := classifyReqs(5, time.Millisecond)
	res := openLoop(context.Background(), serialHandler(0), reqs, behind)
	for i, q := range reqs {
		if lag := res[i].lag(&q); lag < late-5*time.Millisecond {
			t.Errorf("request %d: lag %v, want about %v", i, lag, late)
		}
		if lat := latencies(reqs, res)[i]; lat < late-5*time.Millisecond {
			t.Errorf("request %d: latency %v hides the generator's lag of %v", i, lat, late)
		}
	}
}

// The line writer timestamps each NDJSON line when its last byte arrives,
// so a scripted stream yields exact TTFT and gaps.
func TestLineWriterScriptedStream(t *testing.T) {
	var at time.Duration
	w := newLineWriter(func() time.Duration { return at })
	w.Header().Set("Content-Type", "application/x-ndjson")
	script := []struct {
		at   time.Duration
		text string
	}{
		{5 * time.Millisecond, `{"token":7,`},        // first half of a line
		{6 * time.Millisecond, `"text":"a"}` + "\n"}, // completes it
		{9 * time.Millisecond, `{"token":9}` + "\n" + `{"token":11}` + "\n"},
		{30 * time.Millisecond, `{"done":true,"tokens":3}` + "\n"},
	}
	for _, s := range script {
		at = s.at
		if _, err := w.Write([]byte(s.text)); err != nil {
			t.Fatal(err)
		}
		w.Flush()
	}
	w.finish()

	q := &request{kind: kindGenerate, due: 2 * time.Millisecond, maxNew: 3}
	o := parse(q, &result{status: w.status, lines: w.lines})
	if !o.ok {
		t.Fatalf("stream not ok: %s", o.errMsg)
	}
	if want := []int{7, 9, 11}; !slices.Equal(o.tokens, want) {
		t.Errorf("tokens %v, want %v", o.tokens, want)
	}
	if got, want := o.ttft(q), 4*time.Millisecond; got != want {
		t.Errorf("TTFT %v, want %v (first line complete at 6ms, due at 2ms)", got, want)
	}
	if got, want := o.gaps(), []time.Duration{3 * time.Millisecond, 0}; !slices.Equal(got, want) {
		t.Errorf("gaps %v, want %v", got, want)
	}
	if got, want := o.meanGap(), 1500*time.Microsecond; got != want {
		t.Errorf("mean gap %v, want %v (3ms over two gaps)", got, want)
	}
}

func TestParseFailures(t *testing.T) {
	gen := &request{kind: kindGenerate}
	for name, r := range map[string]result{
		"status":     {status: http.StatusTooManyRequests, lines: []line{{data: []byte(`{"error":"queue full"}`)}}},
		"error line": {status: http.StatusOK, lines: []line{{data: []byte(`{"token":3}`)}, {data: []byte(`{"done":true,"error":"boom"}`)}}},
		"truncated":  {status: http.StatusOK, lines: []line{{data: []byte(`{"token":3}`)}}},
	} {
		if o := parse(gen, &r); o.ok {
			t.Errorf("%s: parsed as ok", name)
		}
	}
	cls := &request{kind: kindClassify, due: time.Millisecond}
	o := parse(cls, &result{status: http.StatusOK, lines: []line{{at: 5 * time.Millisecond, data: []byte(`{"class":2,"cached":true}`)}}})
	if !o.ok || o.class != 2 || !o.cached || o.ttft(cls) != 4*time.Millisecond {
		t.Errorf("classify reply parsed as %+v", o)
	}
}
