// Command e2ebench is the repository's end-to-end benchmark. It starts
// an embedded cluster in its own process — two hetserve replicas behind
// one hetgate gateway, with the daemons' default settings — drives it
// with a closed loop of two clients running one named workload, checks
// every answer against the library, and prints the end-to-end metrics.
// With --trace 1 it instead runs a traced pass that times the same kind
// of requests one layer lower at each step (gateway, direct replica,
// in-process handler, library, Evaluate, kernels) and prints the
// per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// A human-readable table goes to standard error. Failed answers
// (non-2xx, transport errors, shed or failed batch items) count in
// "failed"; an answer that fails a correctness check also makes
// "correct" false, and the command then exits 1.
//
// Usage:
//
//	bash e2ebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datasets"
)

// setups is how many times a --trace 0 run sets the system up; setup_s
// is their median.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "length of the timed closed loop")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	res, notes, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	report(os.Stderr, o, res, notes)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the metrics table and notes to w.
func report(w *os.File, o options, res result, notes []string) {
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "e2ebench %s seed=%d %s run: attempted=%d failed=%d error_share=%.4g ratio correct=%v\n",
		o.workload, o.seed, mode, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

func run(ctx context.Context, o options) (result, []string, error) {
	p, err := newPlan(o.workload, o.seed)
	if err != nil {
		return result{}, nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * clients}}
	defer client.CloseIdleConnections()
	if o.trace {
		return traceRun(ctx, p, client, o)
	}

	var (
		tb        *testbed
		setupTime []float64
		notes     []string
	)
	for i := 0; i < setups; i++ {
		if tb != nil {
			tb.Close()
		}
		var (
			d     time.Duration
			fails []string
		)
		if tb, d, fails, err = setup(ctx, p, client); err != nil {
			return result{}, nil, err
		}
		setupTime = append(setupTime, d.Seconds())
		notes = append(notes, fails...)
	}
	samples, elapsed, peak, err := timedLoop(ctx, p, client, tb, o.seconds)
	tb.Close()
	if err != nil {
		return result{}, nil, err
	}

	v := verify(ctx, newLibrary(p), samples, checkOptions{runSeed: o.seed, regret: true, determinism: !p.store})
	p95, beyond := percentile(v.answerLatencies, 0.95)
	p99, beyond99 := percentile(v.answerLatencies, 0.99)
	res := result{
		Correct:   v.wrong == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics: map[string]metric{
			"estimates_per_s":  {float64(v.attempted-v.failed) / elapsed.Seconds(), "1/s"},
			"latency_p50_ms":   {median(v.answerLatencies), "ms"},
			"latency_p95_ms":   {p95, "ms"},
			"regret_pct":       {mean(v.regrets), "%"},
			"sim_overhead_pct": {median(v.overheads), "%"},
			"setup_s":          {median(setupTime), "s"},
			"rss_peak_mb":      {float64(peak) / 1e6, "MB"},
		},
	}
	notes = append(notes,
		fmt.Sprintf("%d answer latencies: %d beyond p95; p99 = %.4g ms with %d beyond", len(v.answerLatencies), beyond, p99, beyond99),
		fmt.Sprintf("regret_pct averages %d answers; %d cc devices=3 answers excluded", len(v.regrets), v.regretExcluded),
		fmt.Sprintf("%d answers recomputed through the library bit for bit", v.recomputed),
		fmt.Sprintf("setup_s is the median of %v s", setupTime),
	)
	if beyond < 10 {
		notes = append(notes, "WARNING: fewer than 10 samples beyond p95")
	}
	return res, append(notes, v.failures...), nil
}

// setup brings a fresh system to the state the timed phase starts
// from: the Table II replicas the workload names, a started cluster,
// and the warm-up pass (first-contact workload builds; for
// repeat-upload, the answers it re-requests). Failed warm-up answers
// are returned for the log: the timed phase meets the same inputs and
// counts its own failures.
func setup(ctx context.Context, p *plan, client *http.Client) (*testbed, time.Duration, []string, error) {
	t0 := time.Now()
	if p.datasets {
		if _, err := buildReplicas(); err != nil {
			return nil, 0, nil, err
		}
	}
	tb, err := startTestbed(p.store)
	if err != nil {
		return nil, 0, nil, err
	}
	var (
		mu    sync.Mutex
		fails []string
		wg    sync.WaitGroup
		next  = make(chan request)
	)
	// With the store on, each warm-up answer is Put into it and steers
	// the lookups after it: one client keeps that order, so every run
	// starts from the same store.
	workers := clients
	if p.store {
		workers = 1
	}
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range next {
				s := p.sendHTTP(ctx, client, tb.base, req)
				for _, a := range s.answers {
					if !a.ok {
						mu.Lock()
						fails = append(fails, "warm-up: "+a.failure)
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, req := range p.warm {
		next <- req
	}
	close(next)
	wg.Wait()
	return tb, time.Since(t0), fails, nil
}

// buildReplicas generates all 15 Table II replicas from scratch.
func buildReplicas() (time.Duration, error) {
	datasets.ResetCache()
	t0 := time.Now()
	for _, d := range datasets.All() {
		if _, err := d.Matrix(); err != nil {
			return 0, err
		}
		if _, err := d.Graph(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// timedLoop runs the closed loop against the gateway and samples the
// process's resident memory while it runs.
func timedLoop(ctx context.Context, p *plan, client *http.Client, tb *testbed, d time.Duration) ([]sample, time.Duration, int64, error) {
	// Return the earlier set-ups' garbage so peak RSS reflects the
	// system under load, not how the heap was left by set-up.
	runtime.GC()
	debug.FreeOSMemory()
	stop := make(chan struct{})
	peakc := make(chan int64, 1)
	go func() {
		var peak int64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if rss, err := residentBytes(); err == nil && rss > peak {
				peak = rss
			}
			select {
			case <-stop:
				peakc <- peak
				return
			case <-t.C:
			}
		}
	}()
	samples, elapsed := closedLoop(ctx, p, func(req request) sample {
		return p.sendHTTP(ctx, client, tb.base, req)
	}, d)
	close(stop)
	peak := <-peakc
	if peak <= 0 {
		return nil, 0, 0, errors.New("could not read resident memory from /proc/self/status")
	}
	return samples, elapsed, peak, nil
}

// residentBytes reads the process's current resident set size.
func residentBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmRSS line")
}
