package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/batch"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current responses")

// goldenStep is one request of a golden sequence.
type goldenStep struct {
	method, path string
	body         []byte
	contentType  string
}

// goldenRecord is what a golden file stores per step: the status, the
// headers the gateway reads, and the response body with wall_ms zeroed.
type goldenRecord struct {
	Request string            `json:"request"`
	Status  int               `json:"status"`
	Headers map[string]string `json:"headers,omitempty"`
	Body    json.RawMessage   `json:"body"`
}

var wallMS = regexp.MustCompile(`"wall_ms":\s*[-+0-9.eE]+`)

// TestGoldenResponses pins the full response bodies of every serving
// path — scalar, partition, upload, store transfer, shed fallback and
// batch — so a refactor of the pipeline cannot move a single field.
// Run with -update to rewrite the goldens.
func TestGoldenResponses(t *testing.T) {
	a := genMTX(t, 3000, 30000, 3)
	b := genMTX(t, 3000, 30000, 4)
	small := genMTX(t, 600, 4000, 21)
	const q = "/estimate?workload=spmm&searcher=exhaustive&repeats=1"

	cases := []struct {
		name  string
		cfg   Config
		store *store.Config
		setup func(t *testing.T, s *Server)
		steps []goldenStep
	}{
		{name: "get_cc", steps: []goldenStep{{method: "GET", path: "/estimate?workload=cc&dataset=cant&seed=5&repeats=2"}}},
		{name: "get_spmm", steps: []goldenStep{{method: "GET", path: "/estimate?workload=spmm&dataset=qcd5_4&seed=7"}}},
		{name: "get_scalefree", steps: []goldenStep{{method: "GET", path: "/estimate?workload=scalefree&dataset=cant&repeats=1"}}},
		{name: "devices2", steps: []goldenStep{{method: "GET", path: "/estimate?workload=cc&dataset=qcd5_4&repeats=2&seed=11&devices=2"}}},
		{name: "devices3", steps: []goldenStep{
			{method: "GET", path: "/estimate?workload=spmm&dataset=cant&devices=3&repeats=1&seed=3"},
			{method: "GET", path: "/estimate?workload=spmm&dataset=cant&devices=3&repeats=1&seed=3"},
		}},
		{name: "upload", steps: []goldenStep{
			{method: "POST", path: "/estimate?workload=spmm&repeats=1", body: small},
			{method: "POST", path: "/estimate?workload=spmm&repeats=1", body: small},
		}},
		{
			// Cold a seeds the store; b warm-starts off a (lifting a's
			// confidence past the skip gate); b again under a new seed
			// skips Identify through the verified probe.
			name:  "store_cold_warm_skip",
			store: &store.Config{SkipConfidence: 0.52},
			steps: []goldenStep{
				{method: "POST", path: q, body: a},
				{method: "POST", path: q, body: b},
				{method: "POST", path: q + "&seed=2", body: b},
			},
		},
		{
			name: "shed_degraded",
			cfg:  Config{AdmissionLimit: 1, AdmissionQueue: -1, DegradeOnShed: true},
			setup: func(t *testing.T, s *Server) {
				if err := s.Admission().Acquire(context.Background(), 1); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Admission().Release(1) })
			},
			steps: []goldenStep{{method: "GET", path: "/estimate?workload=spmm&dataset=cant&repeats=1"}},
		},
		{name: "batch", steps: []goldenStep{{
			method: "POST", path: "/estimate-batch", contentType: "application/json",
			body: manifestBody(t, []batch.Item{
				{Name: "c", Workload: "cc", Dataset: "qcd5_4", Seed: 2, Repeats: 1},
				{Name: "s", Workload: "spmm", Dataset: "cant", Searcher: "coarse-to-fine", Repeats: 2},
				{Name: "f", Workload: "scalefree", Dataset: "qcd5_4", Seed: 9, Repeats: 1},
				{Name: "x", Dataset: "cant", Searcher: "gradient"},
			}),
		}}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CacheSize = 64
			cfg.Parallelism = 1
			cfg.Logger = testLogger(t)
			if tc.store != nil {
				st, err := store.Open(*tc.store)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store = st
			}
			s := New(cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if tc.setup != nil {
				tc.setup(t, s)
			}
			var got []goldenRecord
			for _, st := range tc.steps {
				got = append(got, goldenDo(t, ts.URL, st))
			}
			out, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, '\n')
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s drifted from its golden.\ngot:\n%s\nwant:\n%s", path, out, want)
			}
		})
	}
}

func goldenDo(t *testing.T, base string, st goldenStep) goldenRecord {
	t.Helper()
	var body io.Reader
	if st.body != nil {
		body = bytes.NewReader(st.body)
	}
	req, err := http.NewRequest(st.method, base+st.path, body)
	if err != nil {
		t.Fatal(err)
	}
	if st.contentType != "" {
		req.Header.Set("Content-Type", st.contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rec := goldenRecord{
		Request: st.method + " " + st.path,
		Status:  resp.StatusCode,
		Body:    wallMS.ReplaceAll(raw, []byte(`"wall_ms":0`)),
	}
	for _, h := range []string{StoreHeader, DegradedHeader, FeaturesHeader, "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			if rec.Headers == nil {
				rec.Headers = map[string]string{}
			}
			rec.Headers[h] = v
		}
	}
	return rec
}
