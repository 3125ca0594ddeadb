package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/mmio"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/xrand"
)

// Ladder sizes: single requests per traced run, or batches for
// ingest-batch, and the dataset-item batches sent to exercise the batch
// layer on the single-request workloads.
const (
	ladderSingles = 48
	ladderBatches = 5
	probeBatches  = 3
)

// counters is a snapshot of the cluster's own counters.
type counters struct {
	retries, hedges                  uint64
	fanoutJobs, fanoutHedges         uint64
	backendJobs                      uint64
	cacheHits, cacheMisses           uint64
	buildHits, buildMisses           uint64
	shed, admitted                   uint64
	storeHits, storeWarm, storeSkips uint64
	storeProbes, storeRejects        uint64
}

func snapshot(tb *testbed) counters {
	var c counters
	c.retries, c.hedges, _ = tb.gw.Metrics().Counts()
	c.fanoutJobs, _, c.fanoutHedges, _ = tb.gw.Metrics().FanoutCounts()
	for i := 0; i < backends; i++ {
		s := tb.emb.Server(i)
		m := s.Metrics()
		jobs, _, _, _ := m.BatchCounts()
		c.backendJobs += jobs
		h, mi, _ := m.CacheCounts()
		c.cacheHits += h
		c.cacheMisses += mi
		bh, bm := m.BuildCounts()
		c.buildHits += bh
		c.buildMisses += bm
		c.shed += s.Admission().Shed()
		c.admitted += s.Admission().Admitted()
		sh, sw, ss, sp, sr, _ := m.StoreCounts()
		c.storeHits += sh
		c.storeWarm += sw
		c.storeSkips += ss
		c.storeProbes += sp
		c.storeRejects += sr
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		retries: c.retries - o.retries, hedges: c.hedges - o.hedges,
		fanoutJobs: c.fanoutJobs - o.fanoutJobs, fanoutHedges: c.fanoutHedges - o.fanoutHedges,
		backendJobs: c.backendJobs - o.backendJobs,
		cacheHits:   c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		buildHits: c.buildHits - o.buildHits, buildMisses: c.buildMisses - o.buildMisses,
		shed: c.shed - o.shed, admitted: c.admitted - o.admitted,
		storeHits: c.storeHits - o.storeHits, storeWarm: c.storeWarm - o.storeWarm,
		storeSkips: c.storeSkips - o.storeSkips, storeProbes: c.storeProbes - o.storeProbes,
		storeRejects: c.storeRejects - o.storeRejects,
	}
}

// spanMillis collects the durations of the backends' spans with one
// of the given names that started at or after since.
func spanMillis(tb *testbed, since time.Time, names ...string) []float64 {
	var out []float64
	for i := 0; i < backends; i++ {
		for _, sp := range tb.emb.Server(i).Sink().Spans() {
			if slices.Contains(names, sp.Name) && !sp.Start.Before(since) {
				out = append(out, sp.DurationMS)
			}
		}
	}
	return out
}

// rung is one ladder request timed at every surface.
type rung struct {
	gateway, direct, handler float64 // ms
	coreDone                 float64 // ms of library calls the handler made (0 for cached answers)
	coreCost                 float64 // ms the library takes for the request, cached or not
}

// traceRun is the --trace 1 pass: set up once, run the closed loop
// again while reading the program's own counters and spans, then
// replay ladder requests one layer lower at a time and time the
// library, adapters and kernels on the workload's inputs.
func traceRun(ctx context.Context, p *plan, client *http.Client, o options) (result, []string, error) {
	tb, _, warmFails, err := setup(ctx, p, client)
	if err != nil {
		return result{}, nil, err
	}
	defer tb.Close()
	lib := newLibrary(p)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// Closed loop with the cluster's counters and spans.
	before := snapshot(tb)
	since := time.Now()
	samples, _, _, err := timedLoop(ctx, p, client, tb, o.seconds)
	if err != nil {
		return result{}, nil, err
	}
	d := snapshot(tb).minus(before)
	loopCheck := verify(ctx, lib, samples, checkOptions{runSeed: o.seed, determinism: !p.store})
	requests := float64(len(samples))
	fresh := 0
	for i := range samples {
		for _, a := range samples[i].answers {
			if a.ok && !a.resp.Cached {
				fresh++
			}
		}
	}
	put("cluster.retries_per_1k", "count", 1000*float64(d.retries)/requests)
	put("cluster.hedges_per_1k", "count", 1000*float64(d.hedges+d.fanoutHedges)/requests)
	put("serve.cache_hit_ratio", "ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)))
	put("serve.build_hit_ratio", "ratio", ratio(float64(d.buildHits), float64(d.buildHits+d.buildMisses)))
	put("resilience.shed_share", "ratio", ratio(float64(d.shed), float64(d.shed+d.admitted)))
	put("store.hit_ratio", "ratio", ratio(float64(d.storeHits), float64(fresh)))
	put("store.warm_share", "ratio", ratio(float64(d.storeWarm), float64(fresh)))
	put("store.skip_share", "ratio", ratio(float64(d.storeSkips), float64(fresh)))
	put("store.reject_share", "ratio", ratio(float64(d.storeRejects), float64(d.storeProbes)))

	// The ladder.
	lad, ladderChecks, err := runLadder(ctx, p, lib, client, tb)
	if err != nil {
		return result{}, nil, err
	}
	var hop, loopback, handler, self, coreDone, coreCost []float64
	for _, r := range lad {
		rg := ladderRungs(r.gateway, r.direct, r.handler, r.coreDone)
		hop = append(hop, rg.hop)
		loopback = append(loopback, rg.loopback)
		handler = append(handler, r.handler)
		self = append(self, rg.self)
		coreDone = append(coreDone, r.coreDone)
		coreCost = append(coreCost, r.coreCost)
	}
	medians := rungs{hop: median(hop), loopback: median(loopback), self: median(self), core: median(coreDone)}
	put("cluster.hop_ms", "ms", medians.hop)
	put("serve.loopback_ms", "ms", medians.loopback)
	put("serve.handler_ms", "ms", median(handler))
	put("serve.self_ms", "ms", medians.self)
	put("core.estimate_ms", "ms", median(coreCost))
	put("unattributed_ms", "ms", unattributed(median(loopCheck.requestLatencies), medians))

	// The batch layer: the closed loop's own jobs on ingest-batch,
	// dataset or upload items packed into jobs on the others.
	jobs := samples
	var batchChecks verdict
	if p.name != ingestBatch {
		before := snapshot(tb)
		jobs = nil
		for i := 0; i < probeBatches; i++ {
			jobs = append(jobs, p.sendHTTP(ctx, client, tb.base, probeBatch(p)))
		}
		d = snapshot(tb).minus(before)
		batchChecks = verify(ctx, lib, jobs, checkOptions{runSeed: o.seed, determinism: !p.store})
	}
	if err := batchMetrics(p, jobs, d, put); err != nil {
		return result{}, nil, err
	}

	// Waits, from the spans the replicas recorded during the traced
	// run (the ring keeps the latest ones). Cache hits skip both gates,
	// so on repeat-upload the waits come from the batch jobs; batch jobs
	// are admitted under "batch.admit". Means, not medians: the spans
	// are rounded to microseconds and most waits are shorter.
	poolWait := spanMillis(tb, since, "pool.wait")
	admissionWait := spanMillis(tb, since, "admission.wait", "batch.admit")
	put("serve.pool_wait_ms", "ms", mean0(poolWait))
	put("resilience.admission_wait_ms", "ms", mean0(admissionWait))

	// Library, adapters, kernels, parsing, store and replicas.
	if err := libraryRungs(ctx, p, lib, tb, put); err != nil {
		return result{}, nil, err
	}

	res := result{Correct: true, Metrics: m}
	notes := warmFails
	for _, v := range []verdict{loopCheck, ladderChecks, batchChecks} {
		res.Attempted += v.attempted
		res.Failed += v.failed
		res.Correct = res.Correct && v.wrong == 0
		notes = append(notes, v.failures...)
	}
	notes = append(notes, fmt.Sprintf("ladder: %d requests; closed loop: %d requests, %d pool.wait and %d admission.wait spans",
		len(lad), len(samples), len(poolWait), len(admissionWait)))
	return res, notes, nil
}

func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func mean0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

// probeBatch packs ladder requests into one job of batchItems items:
// datasets as manifest items, uploads as multipart parts. Items carry
// no device count, so 3-device requests are skipped.
func probeBatch(p *plan) request {
	req := request{kind: postBatch}
	for len(req.items) < batchItems {
		q := p.ladder.take()
		if q.devices > 0 {
			continue
		}
		it := item{workload: q.workload, seed: q.seed}
		if q.kind == getDataset {
			it.dataset = q.dataset
		} else {
			it.upload = q.upload
		}
		req.items = append(req.items, it)
	}
	return req
}

// batchMetrics reports the batch layer from completed jobs and the
// counter deltas taken around them.
func batchMetrics(p *plan, jobs []sample, d counters, put func(string, string, float64)) error {
	var ttfr, parse []float64
	var admissions, builds, items float64
	for i := range jobs {
		s := &jobs[i]
		if s.summary == nil {
			continue
		}
		ttfr = append(ttfr, ms(s.ttfr))
		admissions += float64(s.summary.Admissions)
		builds += float64(s.summary.Builds)
		items += float64(s.summary.Items)
		body, contentType, err := p.batchBody(s.req)
		if err != nil {
			return err
		}
		hr, err := http.NewRequest(http.MethodPost, "http://in-process/estimate-batch", bytes.NewReader(body))
		if err != nil {
			return err
		}
		hr.Header.Set("Content-Type", contentType)
		t0 := time.Now()
		if _, err := batch.ParseRequest(hr, 0, serve.DefaultMaxUpload); err != nil {
			return fmt.Errorf("parsing a batch job: %w", err)
		}
		parse = append(parse, ms(time.Since(t0)))
	}
	jobsDone := float64(len(ttfr))
	put("batch.parse_ms", "ms", median0(parse))
	put("batch.ttfr_ms", "ms", median0(ttfr))
	put("batch.admissions_per_job", "count", ratio(admissions, jobsDone))
	put("batch.builds_per_item", "count", ratio(builds, items))
	put("cluster.subbatches_per_job", "count", ratio(float64(d.backendJobs), float64(d.fanoutJobs)))
	return nil
}

// runLadder sends ladder requests to the gateway, then the same
// request straight to a replica, then through a replica's handler in
// process, then through the library. A request the gateway answered
// from cache is replayed against the replica that cached it; any other
// is replayed against spare replicas outside the ring, configured like
// the cluster's, so every surface meets it as cold as the gateway's
// replica did.
func runLadder(ctx context.Context, p *plan, lib *library, client *http.Client, tb *testbed) ([]rung, verdict, error) {
	n := ladderSingles
	if p.name == ingestBatch {
		n = ladderBatches
	}
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = p.ladder.take()
	}
	sp, err := tb.startSpare()
	if err != nil {
		return nil, verdict{}, err
	}
	defer sp.Close()
	inproc := serve.New(tb.cfg)
	// First contact on the spares: build the datasets' workloads, as
	// the cluster's warm-up built them on its replicas.
	warm := xrand.New(0x5350)
	for _, q := range reqs {
		if q.kind != getDataset {
			continue
		}
		q.seed = freshSeed(warm)
		for _, s := range []sample{p.sendHTTP(ctx, client, sp.url, q), p.sendHandler(ctx, inproc.Handler(), q)} {
			if !s.answers[0].ok {
				return nil, verdict{}, fmt.Errorf("warming spare replicas: %s", s.answers[0].failure)
			}
		}
	}

	var (
		out   []rung
		check []sample
	)
	for _, q := range reqs {
		g := p.sendHTTP(ctx, client, tb.base, q)
		decode([]sample{g})
		cached := q.kind != postBatch && g.answers[0].ok && g.answers[0].resp.Cached
		directURL, h := sp.url, inproc.Handler()
		if cached {
			i, err := tb.backendIndex(g.answers[0].backend)
			if err != nil {
				return nil, verdict{}, err
			}
			directURL, h = tb.emb.URLs()[i], tb.emb.Server(i).Handler()
		}
		dr := p.sendHTTP(ctx, client, directURL, q)
		hr := p.sendHandler(ctx, h, q)
		r := rung{gateway: ms(g.latency), direct: ms(dr.latency), handler: ms(hr.latency)}
		for i := range hr.answers {
			k, seed := keyOf(&hr, i)
			ref, err := lib.ref(k)
			if err != nil {
				return nil, verdict{}, err
			}
			est, err := ref.estimate(ctx, k.workload, seed)
			if err != nil {
				return nil, verdict{}, fmt.Errorf("library estimate for %s: %w", k, err)
			}
			r.coreCost += ms(est.elapsed)
			if !cached {
				r.coreDone += ms(est.elapsed)
			}
		}
		out = append(out, r)
		check = append(check, g, dr, hr)
	}
	return out, verify(ctx, lib, check, checkOptions{determinism: false}), nil
}

// inputsOf lists the distinct inputs the plan's requests name, per
// workload, in a fixed order.
func inputsOf(p *plan) []inputKey {
	var keys []inputKey
	if p.datasets {
		for _, d := range datasets.All() {
			for _, w := range estimators {
				keys = append(keys, inputKey{dataset: d.Name, workload: w})
			}
		}
		return keys
	}
	for u := range p.uploads {
		for _, w := range estimators {
			keys = append(keys, inputKey{upload: u, workload: w})
		}
	}
	return keys
}

// timeEach returns the per-call time of fn in ms, repeating it until
// at least a millisecond has passed so short kernels are resolved.
func timeEach(fn func() error) (float64, error) {
	var (
		n  int
		t0 = time.Now()
	)
	for n == 0 || time.Since(t0) < time.Millisecond {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return ms(time.Since(t0)) / float64(n), nil
}

// libraryRungs times the layers below the service on the workload's
// own inputs: the core stages, the workloads' Sample and Evaluate, the
// kernels, MatrixMarket parsing, the builders, the store lookup, and
// (last, since it regenerates them) the Table II replicas.
func libraryRungs(ctx context.Context, p *plan, lib *library, tb *testbed, put func(string, string, float64)) error {
	ctx = core.WithParallelism(ctx, 1)
	keys := inputsOf(p)
	rng := xrand.New(0x4c4942)

	// Core stages, per input: Sample and Identify as EstimateThreshold
	// runs them (one pre-split generator per repeat), and a 3-device
	// EstimatePartition on the cc and spmm inputs.
	var sampleMS, identifyMS, simplexMS []float64
	var evals, identifyTotal float64
	evalUS := map[string][]float64{}
	var spmmSampleMS []float64
	for _, k := range keys {
		ref, err := lib.ref(k)
		if err != nil {
			return err
		}
		seed := freshSeed(rng)
		r := xrand.New(seed)
		var sampleT, identifyT time.Duration
		for rep := 0; rep < repeats; rep++ {
			rr := r.Split()
			t0 := time.Now()
			sw, _, err := ref.scalar.Sample(ctx, rr)
			if err != nil {
				return fmt.Errorf("sampling %s: %w", k, err)
			}
			t1 := time.Now()
			lo, hi := 0.0, 100.0
			if rg, ok := sw.(core.Ranger); ok {
				lo, hi = rg.ThresholdRange()
			}
			res, err := searcherFor(k.workload).Search(ctx, sw, lo, hi)
			if err != nil {
				return fmt.Errorf("identify on %s: %w", k, err)
			}
			t2 := time.Now()
			sampleT += t1.Sub(t0)
			identifyT += t2.Sub(t1)
			evals += float64(res.Evals)
			if k.workload == "spmm" {
				spmmSampleMS = append(spmmSampleMS, ms(t1.Sub(t0)))
			}
			// Evaluate on the sample, at five points across its range.
			if rep == 0 {
				for i := 0; i <= 4; i++ {
					t := lo + (hi-lo)*float64(i)/4
					us, err := timeEach(func() error { _, err := sw.Evaluate(t); return err })
					if err != nil {
						return err
					}
					evalUS[k.workload] = append(evalUS[k.workload], 1000*us)
				}
			}
		}
		identifyTotal += float64(identifyT)
		sampleMS = append(sampleMS, ms(sampleT))
		identifyMS = append(identifyMS, ms(identifyT))
		if k.workload != "scalefree" {
			pk := k
			pk.devices = 3
			pref, err := lib.ref(pk)
			if err != nil {
				return err
			}
			est, err := pref.estimate(ctx, pk.workload, seed)
			if err != nil {
				return fmt.Errorf("simplex on %s: %w", pk, err)
			}
			simplexMS = append(simplexMS, ms(est.elapsed))
		}
	}
	put("core.sample_ms", "ms", median(sampleMS))
	put("core.identify_ms", "ms", median(identifyMS))
	put("core.simplex_ms", "ms", median(simplexMS))
	put("core.evals_per_estimate", "count", evals/float64(len(keys)))
	put("core.ns_per_eval", "ns", identifyTotal/evals)
	put("hetcc.evaluate_us", "us", median(evalUS["cc"]))
	put("hetspmm.evaluate_us", "us", median(evalUS["spmm"]))
	put("hetscale.evaluate_us", "us", median(evalUS["scalefree"]))
	put("hetspmm.sample_ms", "ms", median(spmmSampleMS))

	// Kernels, builders and store lookups, once per distinct input.
	var spmv, rowCounts, dfs, sv, build, lookup []float64
	platformSig := hetsim.Default().Signature()
	st := tb.store
	if st == nil {
		var err error
		if st, err = store.Open(store.Config{}); err != nil {
			return err
		}
		defer st.Close()
	}
	type feat struct {
		workload, key string
		f             store.Features
	}
	var feats []feat
	var res graph.CCResult
	scratch := new(graph.CCScratch)
	for i := 0; i < len(keys); i += len(estimators) {
		k := keys[i]
		mat, g, err := lib.inputs(k)
		if err != nil {
			return err
		}
		x := make([]float64, mat.Cols)
		for j := range x {
			x[j] = 1
		}
		y := make([]float64, mat.Rows)
		us, err := timeEach(func() error { _, err := sparse.SpMVInto(y, mat, x); return err })
		if err != nil {
			return err
		}
		spmv = append(spmv, 1000*us)
		var counts []int64
		t, err := timeEach(func() error { counts, _, err = sparse.RowOutputCounts(counts, mat, mat); return err })
		if err != nil {
			return err
		}
		rowCounts = append(rowCounts, t)
		t, _ = timeEach(func() error { graph.DFSInto(g, &res, scratch); return nil })
		dfs = append(dfs, 1000*t)
		t, _ = timeEach(func() error { graph.ShiloachVishkinInto(g, &res, scratch); return nil })
		sv = append(sv, 1000*t)

		t0 := time.Now()
		if k.dataset == "" {
			if g, err = graph.FromCSR(mat); err != nil {
				return err
			}
		}
		for _, w := range estimators {
			if _, _, err := lib.build(inputKey{dataset: k.dataset, upload: k.upload, workload: w}); err != nil {
				return err
			}
		}
		build = append(build, ms(time.Since(t0)))

		key := "dataset:" + k.dataset
		if k.dataset == "" {
			key = "upload:" + batch.Fingerprint(p.uploads[k.upload].body)
		}
		for _, w := range estimators {
			f := store.FromCSR(mat)
			if w == "cc" {
				f = store.FromGraph(g)
			}
			feats = append(feats, feat{w, key, f})
		}
	}
	if tb.store == nil {
		for _, f := range feats {
			st.Put(f.workload, f.key, platformSig, f.f, 50, 1)
		}
	}
	for _, f := range feats {
		us, _ := timeEach(func() error { st.Lookup(f.workload, platformSig, f.key, f.f); return nil })
		lookup = append(lookup, 1000*us)
	}
	put("sparse.spmv_us", "us", median(spmv))
	put("sparse.row_output_counts_ms", "ms", median(rowCounts))
	put("graph.dfs_us", "us", median(dfs))
	put("graph.sv_us", "us", median(sv))
	put("serve.build_ms", "ms", median(build))
	put("store.lookup_us", "us", median(lookup))

	// MatrixMarket parsing: the uploads, or three replicas rendered as
	// uploads (one per matrix class) for the dataset workload.
	bodies := make([][]byte, 0, len(p.uploads))
	for _, u := range p.uploads {
		bodies = append(bodies, u.body)
	}
	if p.datasets {
		for _, name := range []string{"cant", "webbase-1M", "netherlands_osm"} {
			d, err := datasets.ByName(name)
			if err != nil {
				return err
			}
			mat, err := d.Matrix()
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := mmio.Write(&buf, mat.ToCOO()); err != nil {
				return err
			}
			bodies = append(bodies, buf.Bytes())
		}
	}
	var parseMS, parseMB float64
	for _, b := range bodies {
		t0 := time.Now()
		if _, err := mmio.Read(bytes.NewReader(b)); err != nil {
			return err
		}
		parseMS += ms(time.Since(t0))
		parseMB += float64(len(b)) / 1e6
	}
	put("mmio.parse_ms_per_mb", "ms/MB", parseMS/parseMB)

	t, err := buildReplicas()
	if err != nil {
		return err
	}
	put("datasets.build_s", "s", t.Seconds())
	return nil
}
