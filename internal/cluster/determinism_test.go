package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/hetsim"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// surfaceAnswer is what every surface must agree on: the threshold (or
// partition vector) and the evaluation count it took.
type surfaceAnswer struct {
	Threshold float64        `json:"threshold"`
	Partition core.Partition `json:"partition"`
	Evals     int            `json:"evals"`
}

func (a surfaceAnswer) String() string {
	return fmt.Sprintf("threshold %v partition %v evals %d", a.Threshold, a.Partition, a.Evals)
}

// libraryAnswer estimates through the core API directly, on the
// workload and default searcher hetserve would pick for the request.
func libraryAnswer(t *testing.T, workload, dataset string, devices int, seed uint64, repeats, par int) surfaceAnswer {
	t.Helper()
	d, err := datasets.ByName(dataset)
	if err != nil {
		t.Fatal(err)
	}
	var mp *hetsim.MultiPlatform
	if devices > 0 {
		mp = hetsim.DefaultMulti(devices - 1)
	}
	w, err := workloads.Build(workload, d.Name, d, hetsim.Default(), mp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Searcher: workloads.DefaultSearcher(workload), Seed: seed, Repeats: repeats, Parallelism: par}
	if devices == 0 {
		est, err := core.EstimateThreshold(context.Background(), w.(core.Sampled), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return surfaceAnswer{Threshold: est.Threshold, Evals: est.Evals}
	}
	est, err := core.EstimatePartition(context.Background(), w.(core.SampledPartition), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return surfaceAnswer{Partition: est.Partition, Evals: est.Evals}
}

func getAnswer(t *testing.T, url string) surfaceAnswer {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d\n%s", url, resp.StatusCode, raw)
	}
	var a surfaceAnswer
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCrossSurfaceDeterminism — one (workload, dataset, seed, searcher)
// yields the same threshold or partition and the same evaluation count
// on every surface: the library, hetserve's /estimate, an
// /estimate-batch item (batch items are scalar only) and hetgate's
// /estimate over an embedded cluster, at Parallelism 1 and 8.
func TestCrossSurfaceDeterminism(t *testing.T) {
	const (
		dataset = "cant"
		seed    = 7
		repeats = 2
	)
	// The query names each workload's default searcher explicitly.
	searchers := map[string]string{"cc": "coarse-to-fine", "spmm": "race"}
	for _, par := range []int{1, 8} {
		scfg := serve.Config{Workers: 2, CacheSize: 64, Parallelism: par, Logger: testLogger(t)}
		_, _, gw := startChaosCluster(t, 2, scfg, nil)
		for _, workload := range []string{"cc", "spmm"} {
			for _, devices := range []int{0, 3} {
				name := fmt.Sprintf("P%d/%s/devices=%d", par, workload, devices)
				want := libraryAnswer(t, workload, dataset, devices, seed, repeats, 1)
				if got := libraryAnswer(t, workload, dataset, devices, seed, repeats, par); got.String() != want.String() {
					t.Errorf("%s library: %v, want %v", name, got, want)
				}
				q := fmt.Sprintf("/estimate?workload=%s&dataset=%s&searcher=%s&seed=%d&repeats=%d",
					workload, dataset, searchers[workload], seed, repeats)
				if devices > 0 {
					q += fmt.Sprintf("&devices=%d", devices)
				}
				// A fresh backend per surface, so no answer comes from a
				// cache another surface filled.
				direct := httptest.NewServer(serve.New(scfg).Handler())
				if got := getAnswer(t, direct.URL+q); got.String() != want.String() {
					t.Errorf("%s hetserve: %v, want %v", name, got, want)
				}
				direct.Close()
				if got := getAnswer(t, gw.URL+q); got.String() != want.String() {
					t.Errorf("%s hetgate: %v, want %v", name, got, want)
				}
				t.Logf("%s: %v", name, want)
				if devices > 0 {
					continue
				}
				backend := httptest.NewServer(serve.New(scfg).Handler())
				_, events := postBatchGW(t, backend.URL, []batch.Item{{Name: "x", Workload: workload,
					Dataset: dataset, Searcher: searchers[workload], Seed: seed, Repeats: repeats}}, nil)
				backend.Close()
				term, _ := terminalsByItem(t, events)
				var got surfaceAnswer
				if err := json.Unmarshal(term["x"].Estimate, &got); err != nil {
					t.Fatalf("%s batch: %v (%+v)", name, err, term["x"])
				}
				if got.String() != want.String() {
					t.Errorf("%s batch item: %v, want %v", name, got, want)
				}
			}
		}
	}
}
