package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// clock reads the time elapsed since the open loop's origin.
type clock func() time.Duration

func wallClock(origin time.Time) clock {
	return func() time.Duration { return time.Since(origin) }
}

// line is one response line and when its last byte was written.
type line struct {
	at   time.Duration
	data []byte
}

// lineWriter is the client side of an in-process request: an
// http.ResponseWriter that implements http.Flusher, so the server streams
// into it, and timestamps every newline-terminated line the moment it is
// written. (httptest.ResponseRecorder only exposes the body once the
// handler has returned, which hides time to first token.)
type lineWriter struct {
	now    clock
	header http.Header
	status int
	part   []byte
	lines  []line
}

func newLineWriter(now clock) *lineWriter {
	return &lineWriter{now: now, header: http.Header{}}
}

func (w *lineWriter) Header() http.Header { return w.header }

func (w *lineWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	at := w.now()
	w.part = append(w.part, p...)
	for {
		i := bytes.IndexByte(w.part, '\n')
		if i < 0 {
			break
		}
		w.lines = append(w.lines, line{at: at, data: append([]byte(nil), w.part[:i]...)})
		w.part = w.part[i+1:]
	}
	return len(p), nil
}

// Flush is a no-op: lines are timestamped as they are written.
func (w *lineWriter) Flush() {}

// finish closes the body: an unterminated trailing line counts as a line.
func (w *lineWriter) finish() {
	if len(w.part) > 0 {
		w.lines = append(w.lines, line{at: w.now(), data: w.part})
		w.part = nil
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
}

// result is the client-side record of one request. All times are offsets
// from the open loop's origin, so latencies count from the request's due
// time, not from when the generator got round to sending it.
type result struct {
	sent   time.Duration
	done   time.Duration
	status int
	lines  []line
}

// lag is how late the generator sent the request.
func (r *result) lag(q *request) time.Duration { return r.sent - q.due }

// send runs one request through h in-process and records its lines.
func send(ctx context.Context, h http.Handler, q *request, now clock) result {
	path, body := "/v1/classify", map[string]any{"text": q.text}
	if q.kind == kindGenerate {
		path = "/v1/generate"
		body["max_new_tokens"] = q.maxNew
		body["stream"] = true
	}
	buf, _ := json.Marshal(body) // a map of strings and ints always marshals
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)).WithContext(ctx)
	w := newLineWriter(now)
	res := result{sent: now()}
	h.ServeHTTP(w, hr)
	w.finish()
	res.done, res.status, res.lines = now(), w.status, w.lines
	return res
}

// openLoop sends every request at its due time, whatever happened to the
// ones before, and returns once all have completed. ctx bounds the whole
// loop: requests still open when it ends are cancelled.
func openLoop(ctx context.Context, h http.Handler, reqs []request, now clock) []result {
	out := make([]result, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		q := &reqs[i]
		if d := q.due - now(); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = send(ctx, h, q, now)
		}(i)
	}
	wg.Wait()
	return out
}
