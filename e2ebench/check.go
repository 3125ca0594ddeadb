package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/xrand"
)

// determinismEvery: one answer in this many (chosen by a hash of its
// request's seed) is recomputed through the library and must match bit
// for bit.
const determinismEvery = 8

// verdict is the outcome of checking every answer of a run.
type verdict struct {
	attempted, failed int
	wrong             int      // answers that failed a check (counted in failed too)
	failures          []string // the first few, for the log
	regrets           []float64
	overheads         []float64
	answerLatencies   []float64 // ms, one per answered estimate
	requestLatencies  []float64 // ms, one per completed request
	recomputed        int
	regretExcluded    int
}

func (v *verdict) addFailure(msg string) {
	v.failed++
	if len(v.failures) < 8 {
		v.failures = append(v.failures, msg)
	}
}

// keyOf names the input and estimate seed of a sample's i-th answer.
func keyOf(s *sample, i int) (inputKey, uint64) {
	req := s.req
	switch req.kind {
	case getDataset:
		return inputKey{dataset: req.dataset, workload: req.workload, devices: req.devices}, req.seed
	case postUpload:
		return inputKey{upload: req.upload, workload: req.workload, devices: req.devices}, req.seed
	}
	it := req.items[i]
	return inputKey{dataset: it.dataset, upload: it.upload, workload: it.workload}, it.seed
}

// selectedForRecompute picks the determinism subset by request seed,
// so the choice does not depend on how the clients interleaved.
func selectedForRecompute(runSeed, reqSeed uint64) bool {
	return xrand.NewSplitMix64(runSeed^reqSeed).Next()%determinismEvery == 0
}

type checkOptions struct {
	runSeed     uint64
	regret      bool // compute exhaustive optima and regret_pct
	determinism bool // recompute the seeded subset through the library
}

type answerRef struct {
	sample, answer int
	seed           uint64
}

// verify checks every answer of a run against the library and
// computes the answer-quality figures:
//   - a threshold lies inside the workload's range; a partition has
//     three shares, validates and sums to 100;
//   - a fresh answer (not cached, coalesced or degraded) made evals;
//   - the workload and seed echo the request, and the reported
//     simulated run time equals the library's at the answered value;
//   - a seeded subset recomputed with core.EstimateThreshold or
//     core.EstimatePartition at P=1 gives the same answer and evals.
func verify(ctx context.Context, l *library, samples []sample, o checkOptions) verdict {
	decode(samples)
	var v verdict
	groups := map[inputKey][]answerRef{}
	for si := range samples {
		s := &samples[si]
		v.requestLatencies = append(v.requestLatencies, ms(s.latency))
		for ai := range s.answers {
			a := &s.answers[ai]
			v.attempted++
			if !a.ok {
				v.addFailure(a.failure)
				continue
			}
			k, seed := keyOf(s, ai)
			groups[k] = append(groups[k], answerRef{si, ai, seed})
			v.answerLatencies = append(v.answerLatencies, ms(a.latency))
			if !a.resp.Degraded {
				v.overheads = append(v.overheads, a.resp.OverheadPct)
			}
		}
	}
	keys := make([]inputKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan inputKey)
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				regrets, recomputed, excluded, fails := verifyInput(ctx, l, k, groups[k], samples, o)
				mu.Lock()
				v.regrets = append(v.regrets, regrets...)
				v.recomputed += recomputed
				v.regretExcluded += excluded
				for _, f := range fails {
					v.addFailure(f)
					v.wrong++
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return v
}

// verifyInput checks every answer on one input.
func verifyInput(ctx context.Context, l *library, k inputKey, refs []answerRef, samples []sample, o checkOptions) (regrets []float64, recomputed, excluded int, fails []string) {
	r, err := l.ref(k)
	if err != nil {
		for range refs {
			fails = append(fails, err.Error())
		}
		return nil, 0, 0, fails
	}
	var opt time.Duration
	if o.regret && k.hasOptimum() {
		if opt, err = r.optimum(ctx); err != nil {
			return nil, 0, 0, []string{fmt.Sprintf("%s: exhaustive reference: %v", k, err)}
		}
	}
	recomputes := map[uint64]libEstimate{}
	for _, ar := range refs {
		a := &samples[ar.sample].answers[ar.answer]
		t, err := checkAnswer(k, r, ar.seed, a)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s seed %d: %v", k, ar.seed, err))
			continue
		}
		if o.regret {
			if k.hasOptimum() {
				regrets = append(regrets, regretPct(t, opt))
			} else {
				excluded++
			}
		}
		if !o.determinism || !selectedForRecompute(o.runSeed, ar.seed) || a.resp.Degraded {
			continue
		}
		lib, ok := recomputes[ar.seed]
		if !ok {
			if lib, err = r.estimate(ctx, k.workload, ar.seed); err != nil {
				fails = append(fails, fmt.Sprintf("%s seed %d: library estimate: %v", k, ar.seed, err))
				continue
			}
			recomputes[ar.seed] = lib
			recomputed++
		}
		if err := sameAnswer(lib, a); err != nil {
			fails = append(fails, fmt.Sprintf("%s seed %d: service and library differ: %v", k, ar.seed, err))
		}
	}
	return regrets, recomputed, excluded, fails
}

// checkAnswer validates one decoded answer and returns the library's
// simulated full-input time at the answered threshold or partition.
func checkAnswer(k inputKey, r *reference, seed uint64, a *answer) (time.Duration, error) {
	resp := &a.resp
	if resp.Workload != k.workload {
		return 0, fmt.Errorf("answer names workload %q", resp.Workload)
	}
	if resp.Seed != seed {
		return 0, fmt.Errorf("answer echoes seed %d", resp.Seed)
	}
	if k.devices > 0 {
		if resp.Devices != k.devices || len(resp.Partition) != k.devices {
			return 0, fmt.Errorf("partition %v for %d devices", resp.Partition, k.devices)
		}
		if err := resp.Partition.Validate(); err != nil {
			return 0, err
		}
	} else if math.IsNaN(resp.Threshold) || resp.Threshold < r.lo || resp.Threshold > r.hi {
		return 0, fmt.Errorf("threshold %g outside [%g, %g]", resp.Threshold, r.lo, r.hi)
	}
	if !resp.Cached && !resp.Coalesced && !resp.Degraded && resp.Evals <= 0 {
		return 0, fmt.Errorf("fresh answer with %d evals", resp.Evals)
	}
	t, err := r.timeAt(resp.Threshold, resp.Partition)
	if err != nil {
		return 0, fmt.Errorf("evaluating the answer: %w", err)
	}
	if !resp.Degraded && time.Duration(resp.RunTimeNS) != t {
		return 0, fmt.Errorf("reported run time %d ns, library %d ns", resp.RunTimeNS, int64(t))
	}
	return t, nil
}

// sameAnswer requires the service's answer to equal the library's bit
// for bit.
func sameAnswer(lib libEstimate, a *answer) error {
	resp := &a.resp
	if resp.Evals != lib.evals {
		return fmt.Errorf("evals %d, library %d", resp.Evals, lib.evals)
	}
	if lib.partition != nil {
		if partitionKey(resp.Partition) != partitionKey(lib.partition) {
			return fmt.Errorf("partition %v, library %v", resp.Partition, lib.partition)
		}
		return nil
	}
	if math.Float64bits(resp.Threshold) != math.Float64bits(lib.threshold) {
		return fmt.Errorf("threshold %v, library %v", resp.Threshold, lib.threshold)
	}
	return nil
}
