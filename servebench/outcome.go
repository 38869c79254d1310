package main

import (
	"encoding/json"
	"net/http"
	"time"
)

// outcome is what a request's response lines say.
type outcome struct {
	ok     bool
	class  int  // classify
	cached bool // classify answered from the response cache
	tokens []int
	tokAt  []time.Duration // generate: when each token line arrived
	first  time.Duration   // classify: the answer; generate: the first token
	errMsg string
}

// parse decodes a result's lines. A request is ok when it got 200 and,
// for a stream, ended with a done line that carries no error.
func parse(q *request, r *result) outcome {
	var o outcome
	if r.status != http.StatusOK {
		o.errMsg = http.StatusText(r.status)
		if len(r.lines) > 0 {
			o.errMsg += ": " + string(r.lines[0].data)
		}
		return o
	}
	if q.kind == kindClassify {
		var body struct {
			Class  int  `json:"class"`
			Cached bool `json:"cached"`
		}
		if len(r.lines) != 1 || json.Unmarshal(r.lines[0].data, &body) != nil {
			o.errMsg = "malformed classify reply"
			return o
		}
		o.ok, o.class, o.cached, o.first = true, body.Class, body.Cached, r.lines[0].at
		return o
	}
	for _, l := range r.lines {
		var c struct {
			Token int    `json:"token"`
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(l.data, &c); err != nil {
			o.errMsg = "malformed stream line"
			return o
		}
		if c.Done {
			o.ok = c.Error == ""
			o.errMsg = c.Error
			break
		}
		o.tokens = append(o.tokens, c.Token)
		o.tokAt = append(o.tokAt, l.at)
	}
	if !o.ok && o.errMsg == "" {
		o.errMsg = "stream ended without a done line"
	}
	if len(o.tokAt) > 0 {
		o.first = o.tokAt[0]
	} else if o.ok {
		o.ok, o.errMsg = false, "stream carried no token"
	}
	return o
}

// ttft is the due-time-to-first-token latency (classify: to the answer).
func (o *outcome) ttft(q *request) time.Duration { return o.first - q.due }

// gaps are the inter-token intervals of a stream.
func (o *outcome) gaps() []time.Duration {
	var g []time.Duration
	for i := 1; i < len(o.tokAt); i++ {
		g = append(g, o.tokAt[i]-o.tokAt[i-1])
	}
	return g
}

// meanGap is a stream's time per output token after the first: its mean
// inter-token gap. It needs at least two tokens.
func (o *outcome) meanGap() time.Duration {
	n := len(o.tokAt)
	return (o.tokAt[n-1] - o.tokAt[0]) / time.Duration(n-1)
}
