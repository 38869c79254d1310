package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

type kind int

const (
	kindClassify kind = iota
	kindGenerate
)

func (k kind) String() string {
	if k == kindClassify {
		return "classify"
	}
	return "generate"
}

// request is one generated input: what is sent, and when it is due
// (offset from the start of the open loop).
type request struct {
	id     int
	kind   kind
	due    time.Duration
	text   string
	maxNew int // generate only
}

// lenRange is an inclusive token-length range with a relative weight.
type lenRange struct {
	weight float64
	lo, hi int
}

// lengths is a mixture of uniform length ranges.
type lengths []lenRange

// stratified draws n lengths whose histogram is the same for every seed:
// each range gets its share of the n draws, spread evenly over the range
// with a random offset inside each stratum. They come back in stratum
// order.
func (l lengths) stratified(rng *rand.Rand, n int) []int {
	total := 0.0
	for _, s := range l {
		total += s.weight
	}
	var out []int
	acc := 0.0
	for i, s := range l {
		acc += s.weight
		k := int(math.Round(acc/total*float64(n))) - len(out)
		if i == len(l)-1 {
			k = n - len(out)
		}
		out = append(out, evenly(rng, k, s.lo, s.hi)...)
	}
	return out
}

// evenly draws k integers in [lo, hi], one per equal-width stratum.
func evenly(rng *rand.Rand, k, lo, hi int) []int {
	out := make([]int, k)
	width := float64(hi - lo + 1)
	for i := range out {
		out[i] = lo + int((float64(i)+rng.Float64())/float64(k)*width)
	}
	return out
}

// faq describes a fixed question set drawn Zipf-like: rank r has weight
// 1/(r+1)^s. A share of the texts of each kind are unique instead: the
// long tail of questions asked once.
type faq struct {
	questions int
	s         float64
	lens      lengths
	unique    float64 // share of texts that are unique
	budgets   [2]int  // generate budgets alternate between these
}

// workload is one open-loop traffic mix. Classify and generate arrivals
// are independent Poisson streams at their own rates.
type workload struct {
	name         string
	classifyRate float64 // req/s
	generateRate float64 // req/s
	classifyLens lengths
	promptLens   lengths
	newLo, newHi int  // generate budget range (unique prompts)
	faq          *faq // non-nil: every text comes from the question set
}

// Token lengths equal text lengths: the serving tokenizer is byte-level.
var (
	shortSkewed = lengths{{0.85, 4, 24}, {0.15, 80, 120}}
	promptSpan  = lengths{{1, 8, 63}}
)

var workloads = []workload{
	{
		// Decode-bound: unique streaming prompts load the continuous
		// scheduler, small-m decode GEMMs, paged-KV block churn and the
		// stall a prefill causes to decode. The classify share is the
		// paper's variable-length case: short-skewed unique texts load the
		// DP scheduler, the packed encoder, the allocator's per-batch plans
		// and encoder-shaped GEMMs. Every prompt misses the prefix cache and
		// every text the response cache.
		name:         "generate-unique",
		classifyRate: 6,
		generateRate: 6,
		classifyLens: shortSkewed,
		promptLens:   promptSpan,
		newLo:        8, newHi: 32,
	},
	{
		// The paper's WeChat FAQ case: repeated questions load the response
		// cache, prefix replay, copy-on-write block sharing and routing
		// affinity; classify and prefill share one encoder. 55% of the texts
		// are unique, so the median request is computed rather than served
		// from a cache: a cache hit takes about a millisecond, mostly
		// goroutine scheduling, and a median there swings with load.
		name:         "mixed-faq",
		classifyRate: 6,
		generateRate: 7,
		faq:          &faq{questions: 96, s: 1.0, lens: promptSpan, unique: 0.55, budgets: [2]int{12, 24}},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// alphabet keeps every text plain ASCII, so JSON carries it byte for byte
// and its token count is its length.
const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "

// textGen draws texts, unique across the whole run.
type textGen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func (g *textGen) unique(n int) string {
	b := make([]byte, n)
	for {
		for i := range b {
			b[i] = alphabet[g.rng.Intn(len(alphabet))]
		}
		if s := string(b); !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
}

// blockSeconds is the span over which arrivals are conditioned: see
// generate.
const blockSeconds = 2.5

// generate builds the run's inputs from seed. Each kind arrives as its own
// Poisson stream at the workload's rate, conditioned on its count in every
// 2.5-s block: a block holds rate·2.5 arrivals (±1) at independent uniform
// times, which is how a Poisson process places a given number of arrivals
// in an interval. Lengths, budgets and questions are drawn stratified over
// the run and dealt evenly to the blocks. Seeds therefore differ in where
// requests fall inside each block and in their texts, while the offered
// work of every block stays the same. The same seed gives the same inputs.
func (w *workload) generate(seed int64, seconds float64) []request {
	rng := rand.New(rand.NewSource(seed))
	texts := &textGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), seen: map[string]bool{}}
	blocks := max(1, int(math.Round(seconds/blockSeconds)))
	nc := int(math.Round(w.classifyRate * seconds))
	ng := int(math.Round(w.generateRate * seconds))

	var clsText, genText []string
	var budgets []int
	if w.faq != nil {
		questions := make([]string, w.faq.questions)
		for i, l := range w.faq.lens.stratified(texts.rng, w.faq.questions) {
			questions[i] = texts.unique(l)
		}
		clsText = w.faq.texts(rng, texts, questions, nc)
		genText = w.faq.texts(rng, texts, questions, ng)
	} else {
		for _, l := range w.classifyLens.stratified(rng, nc) {
			clsText = append(clsText, texts.unique(l))
		}
		for _, l := range w.promptLens.stratified(rng, ng) {
			genText = append(genText, texts.unique(l))
		}
		budgets = evenly(rng, ng, w.newLo, w.newHi)
		rng.Shuffle(ng, func(i, j int) { budgets[i], budgets[j] = budgets[j], budgets[i] })
	}

	var reqs []request
	for _, i := range dealt(rng, nc, blocks, seconds) {
		reqs = append(reqs, request{kind: kindClassify, due: i.due, text: clsText[i.item]})
	}
	for _, i := range dealt(rng, ng, blocks, seconds) {
		r := request{kind: kindGenerate, due: i.due, text: genText[i.item]}
		if budgets != nil {
			r.maxNew = budgets[i.item]
		}
		reqs = append(reqs, r)
	}
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].due < reqs[b].due })
	gens := 0
	for i := range reqs {
		reqs[i].id = i
		if reqs[i].kind == kindGenerate && w.faq != nil {
			reqs[i].maxNew = w.faq.budgets[gens%2] // alternate in arrival order
			gens++
		}
	}
	return reqs
}

// slot is one arrival: when it is due and which of the drawn items it
// carries.
type slot struct {
	due  time.Duration
	item int
}

// dealt spreads n arrivals over blocks equal blocks of the run, at
// independent uniform times inside each block. The items are in stratum
// order; each run of blocks consecutive items goes one to every block, in
// random order, so every block sees the whole range.
func dealt(rng *rand.Rand, n, blocks int, seconds float64) []slot {
	span := seconds / float64(blocks)
	out := make([]slot, 0, n)
	for g := 0; g < n; g += blocks {
		perm := rng.Perm(blocks)
		for j := 0; j < blocks && g+j < n; j++ {
			t := (float64(perm[j]) + rng.Float64()) * span
			out = append(out, slot{due: time.Duration(t * float64(time.Second)), item: g + j})
		}
	}
	return out
}

// texts draws n texts: the FAQ share from the question set, in rank order,
// then the unique share, in length order.
func (f *faq) texts(rng *rand.Rand, g *textGen, questions []string, n int) []string {
	nu := int(math.Round(f.unique * float64(n)))
	out := f.draw(rng, questions, n-nu)
	for _, l := range f.lens.stratified(rng, nu) {
		out = append(out, g.unique(l))
	}
	return out
}

// draw picks n questions, Zipf-like by rank, stratified over the rank
// distribution, in rank order.
func (f *faq) draw(rng *rand.Rand, questions []string, n int) []string {
	cum := make([]float64, len(questions))
	total := 0.0
	for r := range questions {
		total += 1 / math.Pow(float64(r+1), f.s)
		cum[r] = total
	}
	out := make([]string, n)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n) * total
		r := min(sort.SearchFloat64s(cum, u), len(questions)-1)
		out[i] = questions[r]
	}
	return out
}
