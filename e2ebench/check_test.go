package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mmio"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// smallPlan is a plan with one small upload, for checking answers
// without a cluster.
func smallPlan(t *testing.T) *plan {
	t.Helper()
	m, err := sparse.Generate(sparse.GenConfig{Class: sparse.ClassPowerLaw, Rows: 400, NNZ: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmio.Write(&buf, m.ToCOO()); err != nil {
		t.Fatal(err)
	}
	return &plan{uploads: []upload{{name: "small", body: buf.Bytes()}}}
}

func TestCheckAnswerAgainstTheLibrary(t *testing.T) {
	ctx := context.Background()
	lib := newLibrary(smallPlan(t))
	for _, k := range []inputKey{
		{workload: "cc"}, {workload: "spmm"}, {workload: "scalefree"}, {workload: "spmm", devices: 3},
	} {
		r, err := lib.ref(k)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.estimate(ctx, k.workload, 5)
		if err != nil {
			t.Fatal(err)
		}
		good := answer{ok: true}
		good.resp.Workload, good.resp.Seed = k.workload, 5
		good.resp.Threshold, good.resp.Evals, good.resp.RunTimeNS = est.threshold, est.evals, int64(est.runTime)
		if k.devices > 0 {
			good.resp.Devices, good.resp.Partition = k.devices, est.partition
		}
		if _, err := checkAnswer(k, r, 5, &good); err != nil {
			t.Errorf("%s: library's own answer rejected: %v", k, err)
		}
		if err := sameAnswer(est, &good); err != nil {
			t.Errorf("%s: %v", k, err)
		}

		for name, mutate := range map[string]func(*answer){
			"wrong seed":     func(a *answer) { a.resp.Seed = 6 },
			"wrong workload": func(a *answer) { a.resp.Workload = "dense" },
			"no evals":       func(a *answer) { a.resp.Evals = 0 },
			"wrong run time": func(a *answer) { a.resp.RunTimeNS++ },
			"out of range": func(a *answer) {
				a.resp.Threshold = r.hi + 1
				if len(a.resp.Partition) > 0 {
					a.resp.Partition = append(a.resp.Partition[:0:0], 50, 50, 10)
				}
			},
		} {
			bad := good
			bad.resp.Partition = append(good.resp.Partition[:0:0], good.resp.Partition...)
			mutate(&bad)
			if _, err := checkAnswer(k, r, 5, &bad); err == nil {
				t.Errorf("%s: %s accepted", k, name)
			}
		}
		// A cached answer made no evals this time and is still valid.
		cached := good
		cached.resp.Cached, cached.resp.Evals = true, 0
		if _, err := checkAnswer(k, r, 5, &cached); err != nil {
			t.Errorf("%s: cached answer rejected: %v", k, err)
		}
		drift := good
		drift.resp.Evals++
		if err := sameAnswer(est, &drift); err == nil || !strings.Contains(err.Error(), "evals") {
			t.Errorf("%s: eval drift not reported: %v", k, err)
		}
	}
}

func TestOptimumBoundsTheLibraryAnswer(t *testing.T) {
	ctx := context.Background()
	lib := newLibrary(smallPlan(t))
	k := inputKey{workload: "cc"}
	r, err := lib.ref(k)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := r.optimum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.estimate(ctx, k.workload, 9)
	if err != nil {
		t.Fatal(err)
	}
	if reg := regretPct(est.runTime, opt); reg < 0 {
		t.Errorf("integer cc answer beats the exhaustive optimum: regret %g%%", reg)
	}
	if (inputKey{workload: "cc", devices: 3}).hasOptimum() || !(inputKey{workload: "spmm", devices: 3}).hasOptimum() {
		t.Error("only 3-device cc answers are left out of regret")
	}
}

// TestVerifyCountsFailuresAndWrongAnswers runs verify's worker pool
// over answers on several inputs at once (run it with -race): a failed
// answer counts in failed only, a wrong one in failed and wrong.
func TestVerifyCountsFailuresAndWrongAnswers(t *testing.T) {
	ctx := context.Background()
	p := smallPlan(t)
	lib := newLibrary(p)
	var samples []sample
	for _, w := range estimators {
		r, err := lib.ref(inputKey{workload: w})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			est, err := r.estimate(ctx, w, seed)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(serve.EstimateResponse{
				Workload: w, Seed: seed, Threshold: est.threshold, Evals: est.evals, RunTimeNS: int64(est.runTime),
			})
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, sample{
				req:     request{kind: postUpload, workload: w, seed: seed},
				answers: []answer{{ok: true, raw: raw}},
			})
		}
	}
	var off serve.EstimateResponse
	if err := json.Unmarshal(samples[0].answers[0].raw, &off); err != nil {
		t.Fatal(err)
	}
	off.RunTimeNS++
	raw, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	samples = append(samples,
		sample{req: samples[0].req, answers: []answer{{ok: true, raw: raw}}},
		sample{req: request{kind: postUpload, workload: "cc", seed: 9}, answers: []answer{{failure: "status 500"}}})

	v := verify(ctx, lib, samples, checkOptions{runSeed: 3, regret: true, determinism: true})
	if v.attempted != 14 || v.failed != 2 || v.wrong != 1 {
		t.Errorf("attempted %d, failed %d, wrong %d; want 14, 2, 1 (%v)", v.attempted, v.failed, v.wrong, v.failures)
	}
	if len(v.regrets) != 12 {
		t.Errorf("%d regrets, want one per correct answer (12)", len(v.regrets))
	}
}
