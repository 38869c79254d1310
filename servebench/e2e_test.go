package main

import (
	"net/http"
	"slices"
	"testing"
	"time"
)

// When every stream fails, the generate metrics have no samples: the run
// must fail rather than report them as zero, the best value a
// lower-is-better metric can take.
func TestAllFailedKindFailsTheRun(t *testing.T) {
	reqs := []request{
		{id: 0, kind: kindClassify, due: 0},
		{id: 1, kind: kindGenerate, due: time.Millisecond, maxNew: 4},
	}
	ph := &phase{outs: []outcome{
		parse(&reqs[0], &result{status: http.StatusOK, lines: []line{{at: 3 * time.Millisecond, data: []byte(`{"class":1}`)}}}),
		parse(&reqs[1], &result{status: http.StatusServiceUnavailable}),
	}}
	got := unmeasured(endToEnd(reqs, ph, []float64{1}))
	want := []string{"ttft_ms.p50 has no samples", "itl_ms.p50 has no samples", "tpot_ms.p50 has no samples"}
	if !slices.Equal(got, want) {
		t.Errorf("unmeasured = %q, want %q", got, want)
	}
}
