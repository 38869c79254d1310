package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The same seed gives the same inputs; every seed offers the same work.
func TestWorkloadsAreSeededAndFixedInSize(t *testing.T) {
	const seconds = 25
	for _, w := range workloads {
		a, b := w.generate(7, seconds), w.generate(7, seconds)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w.name)
		}
		other := w.generate(8, seconds)
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
		for _, reqs := range [][]request{a, other} {
			var n [2]int
			texts := map[string]bool{}
			for i, q := range reqs {
				n[q.kind]++
				if q.due < 0 || q.due >= seconds*time.Second {
					t.Errorf("%s: request %d due at %v, outside the run", w.name, i, q.due)
				}
				if i > 0 && q.due < reqs[i-1].due {
					t.Fatalf("%s: requests not in due order at %d", w.name, i)
				}
				if q.kind == kindGenerate && q.maxNew < 1 {
					t.Errorf("%s: request %d has budget %d", w.name, i, q.maxNew)
				}
				if w.faq == nil && texts[q.text] {
					t.Errorf("%s: text of request %d repeats", w.name, i)
				}
				texts[q.text] = true
			}
			if want := [2]int{int(w.classifyRate * seconds), int(w.generateRate * seconds)}; n != want {
				t.Errorf("%s: sent %v (classify, generate), want %v", w.name, n, want)
			}
		}
	}
}

// Arrivals are conditioned per block, so no block runs hot: every 2.5-s
// block of generate-unique carries its share of classify requests and of
// the long (80–120 token, 15%) texts.
func TestBlocksCarryEvenLoad(t *testing.T) {
	w, err := workloadByName("generate-unique")
	if err != nil {
		t.Fatal(err)
	}
	reqs := w.generate(3, 25)
	var perBlock, longPerBlock [10]int
	for _, q := range reqs {
		if q.kind != kindClassify {
			continue
		}
		b := int(q.due / (2500 * time.Millisecond))
		perBlock[b]++
		if len(q.text) >= 80 {
			longPerBlock[b]++
		}
	}
	want := int(w.classifyRate * blockSeconds)
	long := 0.15 * float64(want)
	for b := range perBlock {
		if perBlock[b] != want {
			t.Errorf("block %d: %d classify requests, want %d", b, perBlock[b], want)
		}
		if n := float64(longPerBlock[b]); n < math.Floor(long) || n > math.Ceil(long) {
			t.Errorf("block %d: %d long texts, want %.2f rounded either way", b, longPerBlock[b], long)
		}
	}
}
