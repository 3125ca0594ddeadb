package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/serve"
)

// clients is the closed loop's concurrency: one per core of the
// machine the benchmark was sized on. Callers of the service wait for
// the answer before launching their job, so each client sends its next
// request only when the previous one has completed.
const clients = 2

// answer is one estimate a request produced: the whole response of a
// single request, or one item of a batch.
type answer struct {
	latency time.Duration // client-observed; for batch items, to the item's terminal event
	ok      bool
	failure string
	raw     []byte // the /estimate JSON
	resp    serve.EstimateResponse
	backend string
}

// sample is one completed client request.
type sample struct {
	req     request
	latency time.Duration
	ttfr    time.Duration // batch: time to the first terminal item event
	summary *batch.Summary
	answers []answer
}

func (s *sample) fail(msg string) {
	n := 1
	if s.req.kind == postBatch {
		n = len(s.req.items)
	}
	s.answers = s.answers[:0]
	for i := 0; i < n; i++ {
		s.answers = append(s.answers, answer{latency: s.latency, failure: msg})
	}
}

// query renders a single request's /estimate query string.
func query(req request) string {
	q := url.Values{}
	q.Set("workload", req.workload)
	q.Set("seed", strconv.FormatUint(req.seed, 10))
	if req.kind == getDataset {
		q.Set("dataset", req.dataset)
	}
	if req.devices > 0 {
		q.Set("devices", strconv.Itoa(req.devices))
	}
	return q.Encode()
}

// batchBody renders a batch request as the multipart job body.
func (p *plan) batchBody(req request) ([]byte, string, error) {
	items := make([]batch.Item, len(req.items))
	for i, it := range req.items {
		items[i] = batch.Item{Name: "i" + strconv.Itoa(i), Workload: it.workload, Dataset: it.dataset, Seed: it.seed}
		if it.dataset == "" {
			items[i].Body = p.uploads[it.upload].body
		}
	}
	return batch.EncodeRequest(items)
}

// httpRequest builds the HTTP request for req against base.
func (p *plan) httpRequest(ctx context.Context, base string, req request) (*http.Request, error) {
	switch req.kind {
	case getDataset:
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/estimate?"+query(req), nil)
	case postUpload:
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/estimate?"+query(req), bytes.NewReader(p.uploads[req.upload].body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "text/plain")
		return hr, nil
	default:
		body, contentType, err := p.batchBody(req)
		if err != nil {
			return nil, err
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/estimate-batch", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", contentType)
		hr.Header.Set("Accept", "application/x-ndjson")
		return hr, nil
	}
}

// readResponse times and collects one response whose request was sent
// at t0.
func readResponse(req request, t0 time.Time, code int, header http.Header, body io.Reader) sample {
	s := sample{req: req}
	if req.kind != postBatch {
		raw, err := io.ReadAll(body)
		s.latency = time.Since(t0)
		if err != nil {
			s.fail("reading response: " + err.Error())
			return s
		}
		if code != http.StatusOK {
			s.fail(fmt.Sprintf("status %d: %.200s", code, raw))
			return s
		}
		s.answers = []answer{{latency: s.latency, ok: true, raw: raw, backend: header.Get("X-Hetgate-Backend")}}
		return s
	}
	if code != http.StatusOK {
		raw, _ := io.ReadAll(body) // only quoted in the failure
		s.latency = time.Since(t0)
		s.fail(fmt.Sprintf("status %d: %.200s", code, raw))
		return s
	}
	s.answers = make([]answer, len(req.items))
	for i := range s.answers {
		s.answers[i].failure = "no terminal event"
	}
	err := batch.ReadEvents(body, func(e batch.Event) error {
		if e.Type == batch.EventSummary {
			s.summary = e.Summary
			return nil
		}
		if !e.Terminal() {
			return nil
		}
		i, err := strconv.Atoi(e.Item[1:])
		if err != nil || i < 0 || i >= len(s.answers) || e.Item[0] != 'i' {
			return fmt.Errorf("event for unknown item %q", e.Item)
		}
		at := time.Since(t0)
		if s.ttfr == 0 {
			s.ttfr = at
		}
		a := answer{latency: at, backend: e.Backend}
		if e.Type == batch.EventRefined {
			a.ok, a.raw = true, e.Estimate
		} else {
			a.failure = e.Code + ": " + e.Error
		}
		s.answers[i] = a
		return nil
	})
	s.latency = time.Since(t0)
	if err != nil {
		s.fail("reading event stream: " + err.Error())
	} else if s.summary == nil {
		s.fail("no summary event")
	}
	return s
}

// sendHTTP sends req to base over loopback HTTP.
func (p *plan) sendHTTP(ctx context.Context, client *http.Client, base string, req request) sample {
	hr, err := p.httpRequest(ctx, base, req)
	if err != nil {
		s := sample{req: req}
		s.fail("building request: " + err.Error())
		return s
	}
	t0 := time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		s := sample{req: req, latency: time.Since(t0)}
		s.fail("transport: " + err.Error())
		return s
	}
	defer resp.Body.Close()
	return readResponse(req, t0, resp.StatusCode, resp.Header, resp.Body)
}

// sendHandler runs req through h in process, with no listener or
// connection in between.
func (p *plan) sendHandler(ctx context.Context, h http.Handler, req request) sample {
	hr, err := p.httpRequest(ctx, "http://in-process", req)
	if err != nil {
		s := sample{req: req}
		s.fail("building request: " + err.Error())
		return s
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, hr)
	return readResponse(req, t0, rec.Code, rec.Header(), rec.Body)
}

// closedLoop runs the plan's timed sequence with `clients` concurrent
// closed-loop clients for d, and returns every completed request with
// the wall time from the first send to the last completion.
func closedLoop(ctx context.Context, p *plan, send func(request) sample, d time.Duration) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				s := send(p.seq.take())
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// decode parses every successful answer's JSON.
func decode(samples []sample) {
	for i := range samples {
		for j := range samples[i].answers {
			a := &samples[i].answers[j]
			if !a.ok {
				continue
			}
			if err := json.Unmarshal(a.raw, &a.resp); err != nil {
				a.ok, a.failure = false, "decoding answer: "+err.Error()
			}
		}
	}
}
