package main

import (
	"bytes"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/batch"
)

func takeN(s *sequence, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.take()
	}
	return out
}

// parseJob encodes a batch request and parses it back the way the
// service does. The multipart boundary is random; the items are not.
func parseJob(t *testing.T, p *plan, req request) []batch.Item {
	t.Helper()
	body, contentType, err := p.batchBody(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, "/estimate-batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", contentType)
	job, err := batch.ParseRequest(hr, 0, int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	return job.Items
}

func TestSameSeedSameRequestsAndBytes(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newPlan(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.warm, b.warm) {
			t.Errorf("%s: warm-up differs for the same seed", name)
		}
		if !reflect.DeepEqual(takeN(a.seq, 200), takeN(b.seq, 200)) {
			t.Errorf("%s: timed sequence differs for the same seed", name)
		}
		if !reflect.DeepEqual(takeN(a.ladder, 20), takeN(b.ladder, 20)) {
			t.Errorf("%s: ladder sequence differs for the same seed", name)
		}
		if len(a.uploads) != len(b.uploads) {
			t.Fatalf("%s: %d vs %d uploads", name, len(a.uploads), len(b.uploads))
		}
		for i := range a.uploads {
			if !bytes.Equal(a.uploads[i].body, b.uploads[i].body) {
				t.Errorf("%s: upload %d bytes differ for the same seed", name, i)
			}
		}
		for _, req := range takeN(a.seq, 3) {
			if req.kind == postBatch && !reflect.DeepEqual(parseJob(t, a, req), parseJob(t, b, req)) {
				t.Errorf("%s: batch jobs differ for the same request", name)
			}
		}

		c, err := newPlan(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(takeN(c.seq, 50), takeN(a.seq, 50)) {
			t.Errorf("%s: seeds 7 and 8 send the same requests", name)
		}
	}
}

func TestIngestBatchesAreFreshUploads(t *testing.T) {
	a, err := newPlan(ingestBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.uploads) != len(uploadClasses)*ingestVariants {
		t.Fatalf("%d uploads in the pool", len(a.uploads))
	}
	for _, u := range a.uploads {
		if n := len(u.body); n < 900_000 || n > 1_400_000 {
			t.Errorf("upload %s is %d bytes, want about 1 MB", u.name, n)
		}
	}
	// Set-up primes the store identically in every run: one answer per
	// (body, workload), in pool order, under fixed seeds.
	b, err := newPlan(ingestBatch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.warm) != len(a.uploads)*len(estimators) || !reflect.DeepEqual(a.warm, b.warm) {
		t.Errorf("store priming differs between seeds or misses pairs: %d requests", len(a.warm))
	}
	seeds := map[uint64]bool{}
	for _, req := range takeN(a.seq, 50) {
		if req.kind != postBatch || len(req.items) != batchItems {
			t.Fatalf("ingest request %+v is not a batch of %d", req, batchItems)
		}
		for _, it := range req.items {
			if it.seed == 0 || seeds[it.seed] {
				t.Errorf("batch item seed %d is the daemon default or repeats", it.seed)
			}
			seeds[it.seed] = true
		}
	}
}

func TestColdMixRoundsAreBalanced(t *testing.T) {
	p, err := newPlan(coldMix, 3)
	if err != nil {
		t.Fatal(err)
	}
	const templates = 45
	partitions := map[[2]string]int{}
	for round := 0; round < devicesEvery; round++ {
		seen := map[[2]string]bool{}
		d3 := 0
		for _, req := range takeN(p.seq, templates) {
			k := [2]string{req.dataset, req.workload}
			if seen[k] {
				t.Fatalf("round %d repeats %v", round, k)
			}
			seen[k] = true
			if req.devices == 3 {
				d3++
				partitions[k]++
				if req.workload == "scalefree" {
					t.Errorf("scalefree request with devices=3")
				}
			}
		}
		if d3 != 30/devicesEvery {
			t.Errorf("round %d has %d devices=3 requests, want %d", round, d3, 30/devicesEvery)
		}
	}
	if len(partitions) != 30 {
		t.Errorf("%d cc/spmm templates asked for devices=3 over %d rounds, want all 30", len(partitions), devicesEvery)
	}
	for k, n := range partitions {
		if n != 1 {
			t.Errorf("%v asked for devices=3 %d times in %d rounds", k, n, devicesEvery)
		}
	}
	if len(p.warm) != templates+30 {
		t.Errorf("warm-up has %d requests, want every template plus its devices=3 variant", len(p.warm))
	}
}

func TestRepeatUploadOnlyResendsAnsweredRequests(t *testing.T) {
	p, err := newPlan(repeatUpload, 5)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		workload string
		upload   int
		seed     uint64
	}
	answered := map[key]bool{}
	for _, req := range p.warm {
		answered[key{req.workload, req.upload, req.seed}] = true
	}
	if len(answered) != len(uploadClasses)*len(estimators)*repeatSeeds {
		t.Fatalf("%d distinct answered requests", len(answered))
	}
	for _, req := range takeN(p.seq, 500) {
		if req.kind != postUpload || !answered[key{req.workload, req.upload, req.seed}] {
			t.Fatalf("timed request %+v was not answered during set-up", req)
		}
	}
}

func TestSequenceSharedByClients(t *testing.T) {
	a, err := newPlan(coldMix, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPlan(coldMix, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{}
	for _, req := range takeN(b.seq, 2*100) {
		want[req.seed]++
	}
	got := make(chan []request, 2)
	for c := 0; c < 2; c++ {
		go func() { got <- takeN(a.seq, 100) }()
	}
	for c := 0; c < 2; c++ {
		for _, req := range <-got {
			want[req.seed]--
		}
	}
	for seed, n := range want {
		if n != 0 {
			t.Fatalf("concurrent clients drew seed %d %+d times off the sequential order", seed, -n)
		}
	}
}
