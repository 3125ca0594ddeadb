package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func finishSpan(sink *Sink, name string) *Span {
	ctx := WithScope(context.Background(), Scope{Service: "test", Sink: sink})
	_, sp := StartSpan(ctx, name)
	sp.Finish()
	return sp
}

func TestSinkRingEvictsOldest(t *testing.T) {
	sink := NewSink(3)
	for i := 0; i < 5; i++ {
		finishSpan(sink, fmt.Sprintf("s%d", i))
	}
	stored, total := sink.Stats()
	if stored != 3 || total != 5 {
		t.Fatalf("stats = %d/%d, want 3 stored of 5 total", stored, total)
	}
	spans := sink.Spans()
	var names []string
	for _, sp := range spans {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ","); got != "s2,s3,s4" {
		t.Errorf("stored spans %s, want s2,s3,s4 (oldest evicted first)", got)
	}
	// Histograms survive eviction: they profile every span ever seen.
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		var r Registry
		sink.Register(&r, "test_stage_seconds")
		if _, err := r.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), fmt.Sprintf(`stage="s%d"`, i)) {
			t.Errorf("stage histogram for s%d missing after eviction", i)
		}
	}
}

// TestSinkConcurrentObserve hammers one sink from many goroutines; run
// with -race this is the eviction data-race regression test.
func TestSinkConcurrentObserve(t *testing.T) {
	sink := NewSink(64)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				finishSpan(sink, fmt.Sprintf("stage%d", w%4))
				if i%10 == 0 {
					sink.Spans()
					sink.Traces()
				}
			}
		}(w)
	}
	wg.Wait()
	stored, total := sink.Stats()
	if total != workers*perWorker {
		t.Errorf("total = %d, want %d", total, workers*perWorker)
	}
	if stored != 64 {
		t.Errorf("stored = %d, want full ring of 64", stored)
	}
}

func TestSinkHandlerJSON(t *testing.T) {
	sink := NewSink(16)
	ctx := WithScope(context.Background(), Scope{Service: "test", Sink: sink})
	ctx, root := StartSpan(ctx, "http.estimate")
	_, child := StartSpan(ctx, "pipeline")
	child.Finish()
	root.Finish()
	finishSpan(sink, "other") // a second, unrelated trace

	req := httptest.NewRequest("GET", "/debug/spans", nil)
	rr := httptest.NewRecorder()
	sink.Handler().ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var out struct {
		Traces []TraceRecord `json:"traces"`
		Stored int           `json:"stored_spans"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if len(out.Traces) != 2 || out.Stored != 3 {
		t.Fatalf("got %d traces, %d spans; want 2 traces of 3 spans", len(out.Traces), out.Stored)
	}

	// ?trace= filters to one trace; the pipeline span must still point
	// at its server-span parent.
	req = httptest.NewRequest("GET", "/debug/spans?trace="+root.TraceID.String(), nil)
	rr = httptest.NewRecorder()
	sink.Handler().ServeHTTP(rr, req)
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || len(out.Traces[0].Spans) != 2 {
		t.Fatalf("filtered traces = %+v, want the one 2-span trace", out.Traces)
	}
	for _, sp := range out.Traces[0].Spans {
		if sp.Name == "pipeline" && sp.ParentID != root.SpanID.String() {
			t.Errorf("pipeline parent %s, want %s", sp.ParentID, root.SpanID)
		}
	}

	// Bad ?limit= is a 400, not a panic.
	req = httptest.NewRequest("GET", "/debug/spans?limit=zero", nil)
	rr = httptest.NewRecorder()
	sink.Handler().ServeHTTP(rr, req)
	if rr.Code != 400 {
		t.Errorf("bad limit: status %d, want 400", rr.Code)
	}
}
