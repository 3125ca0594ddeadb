package main

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/datasets"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Workload names, as passed to --workload.
const (
	coldMix      = "cold-mix"
	repeatUpload = "repeat-upload"
	ingestBatch  = "ingest-batch"
)

var workloadNames = []string{coldMix, repeatUpload, ingestBatch}

// The three estimation workloads hetserve answers.
var estimators = []string{"cc", "spmm", "scalefree"}

// Upload generator classes: FEM, power-law and road networks.
var uploadClasses = []sparse.Class{sparse.ClassFEM, sparse.ClassPowerLaw, sparse.ClassRoad}

// Upload shape: about 1.1–1.2 MB of MatrixMarket text per body.
const (
	uploadRows = 12000
	uploadNNZ  = 40000
)

const (
	// devicesEvery: one cold-mix request in this many on cc/spmm asks
	// for a 3-device partition.
	devicesEvery = 6
	// repeatSeeds is how many estimate seeds each repeat-upload
	// (body, workload) pair is answered under before timing.
	repeatSeeds = 16
	// ingestVariants is how many bodies per class the ingest pool holds.
	ingestVariants = 12
	// batchItems is the item count of one ingest-batch request.
	batchItems = 8
)

type kind int

const (
	getDataset kind = iota // GET /estimate?dataset=
	postUpload             // POST /estimate with a MatrixMarket body
	postBatch              // POST /estimate-batch, multipart
)

// request is one client request. Single requests name their input by
// dataset or by upload index; batch requests carry items.
type request struct {
	kind     kind
	workload string
	dataset  string
	upload   int
	devices  int
	seed     uint64
	items    []item
}

// item is one item of a batch request: an upload, or a dataset when
// dataset is set.
type item struct {
	workload string
	dataset  string
	upload   int
	seed     uint64
}

// upload is one generated MatrixMarket body.
type upload struct {
	name string
	body []byte
}

// plan is everything a workload sends: its upload bodies, the warm-up
// pass that belongs to set-up, and the timed request sequence. All of
// it is a pure function of the workload name and the seed.
type plan struct {
	name     string
	store    bool // the cluster runs with an in-memory threshold store
	datasets bool // the requests name Table II replicas
	uploads  []upload
	warm     []request
	seq      *sequence
	ladder   *sequence // requests the traced ladder replays, one layer at a time
}

// sequence yields a workload's requests in a fixed order. Clients
// share one sequence, so the order of requests sent is the same for a
// seed however the clients interleave.
type sequence struct {
	mu   sync.Mutex
	next func() request
}

func (s *sequence) take() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// freshSeed draws a non-zero estimate seed (zero means "daemon
// default" in batch manifests).
func freshSeed(r *xrand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// newPlan builds the named workload's plan from the seed.
func newPlan(name string, seed uint64) (*plan, error) {
	switch name {
	case coldMix:
		return coldMixPlan(seed), nil
	case repeatUpload:
		return repeatUploadPlan(seed)
	case ingestBatch:
		return ingestBatchPlan(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

type template struct {
	dataset, workload string
}

// coldMixPlan: GET /estimate over all 15 datasets × 3 workloads. Each
// round visits every template once in a seeded order with fresh seeds;
// a rotating sixth of the cc and spmm templates ask for devices=3.
func coldMixPlan(seed uint64) *plan {
	var tpls []template
	for _, d := range datasets.All() {
		for _, w := range estimators {
			tpls = append(tpls, template{d.Name, w})
		}
	}
	p := &plan{name: coldMix, datasets: true}
	warmRng := xrand.New(seed ^ 0x5741524d)
	for _, t := range tpls {
		p.warm = append(p.warm, request{kind: getDataset, workload: t.workload, dataset: t.dataset, seed: freshSeed(warmRng)})
		if t.workload != "scalefree" {
			p.warm = append(p.warm, request{kind: getDataset, workload: t.workload, dataset: t.dataset, devices: 3, seed: freshSeed(warmRng)})
		}
	}
	rounds := func(r *xrand.Rand) func() request {
		var (
			round int
			queue []request
		)
		return func() request {
			if len(queue) == 0 {
				for _, j := range r.Perm(len(tpls)) {
					t := tpls[j]
					req := request{kind: getDataset, workload: t.workload, dataset: t.dataset, seed: freshSeed(r)}
					// Number the 30 cc and spmm templates 0..29; each
					// round picks one residue class of devicesEvery, so
					// every round has five devices=3 requests and each
					// template asks once every devicesEvery rounds.
					ds, wi := j/len(estimators), j%len(estimators)
					if t.workload != "scalefree" && (ds+len(tpls)/len(estimators)*wi+round)%devicesEvery == 0 {
						req.devices = 3
					}
					queue = append(queue, req)
				}
				round++
			}
			req := queue[0]
			queue = queue[1:]
			return req
		}
	}
	p.seq = &sequence{next: rounds(xrand.New(seed))}
	p.ladder = &sequence{next: rounds(xrand.New(seed ^ 0x4c414444))}
	return p
}

// renderUpload generates one MatrixMarket body.
func renderUpload(class sparse.Class, genSeed uint64) ([]byte, error) {
	m, err := sparse.Generate(sparse.GenConfig{Class: class, Rows: uploadRows, NNZ: uploadNNZ, Seed: genSeed})
	if err != nil {
		return nil, fmt.Errorf("generating %v upload: %w", class, err)
	}
	var buf bytes.Buffer
	if err := mmio.Write(&buf, m.ToCOO()); err != nil {
		return nil, fmt.Errorf("rendering %v upload: %w", class, err)
	}
	return buf.Bytes(), nil
}

// repeatUploadPlan: a fixed set of one body per class, each answered
// for every workload under repeatSeeds seeded estimate seeds during
// set-up; the timed phase re-POSTs those answered requests in seeded
// rounds, so the result cache holds every one of them.
func repeatUploadPlan(seed uint64) (*plan, error) {
	p := &plan{name: repeatUpload}
	for i, class := range uploadClasses {
		body, err := renderUpload(class, 9001+uint64(i))
		if err != nil {
			return nil, err
		}
		p.uploads = append(p.uploads, upload{name: class.String(), body: body})
	}
	r := xrand.New(seed)
	for u := range p.uploads {
		for _, w := range estimators {
			for k := 0; k < repeatSeeds; k++ {
				p.warm = append(p.warm, request{kind: postUpload, workload: w, upload: u, seed: freshSeed(r)})
			}
		}
	}
	answered := p.warm
	rounds := func(r *xrand.Rand) func() request {
		var queue []request
		return func() request {
			if len(queue) == 0 {
				for _, j := range r.Perm(len(answered)) {
					queue = append(queue, answered[j])
				}
			}
			req := queue[0]
			queue = queue[1:]
			return req
		}
	}
	p.seq = &sequence{next: rounds(r.Split())}
	p.ladder = &sequence{next: rounds(r.Split())}
	return p, nil
}

// ingestBatchPlan: /estimate-batch jobs of batchItems uploads drawn in
// seeded rounds from a fixed pool of ingestVariants bodies per class ×
// 3 workloads. Every item carries a fresh estimate seed, so no item is
// answered from the result cache, and upload builds always run. The
// pool is fixed, like repeat-upload's, because answer quality on this
// workload varies more between generated bodies than between runs.
func ingestBatchPlan(seed uint64) (*plan, error) {
	p := &plan{name: ingestBatch, store: true}
	r := xrand.New(seed)
	for ci, class := range uploadClasses {
		for v := 0; v < ingestVariants; v++ {
			body, err := renderUpload(class, 9101+uint64(10*ci+v))
			if err != nil {
				return nil, err
			}
			p.uploads = append(p.uploads, upload{name: fmt.Sprintf("%v-%d", class, v), body: body})
		}
	}
	type pair struct {
		upload   int
		workload string
	}
	var pairs []pair
	for u := range p.uploads {
		for _, w := range estimators {
			pairs = append(pairs, pair{u, w})
		}
	}
	batches := func(r *xrand.Rand) func() request {
		var queue []pair
		return func() request {
			req := request{kind: postBatch}
			for len(req.items) < batchItems {
				if len(queue) == 0 {
					for _, j := range r.Perm(len(pairs)) {
						queue = append(queue, pairs[j])
					}
				}
				req.items = append(req.items, item{workload: queue[0].workload, upload: queue[0].upload, seed: freshSeed(r)})
				queue = queue[1:]
			}
			return req
		}
	}
	// Set-up primes the store with one answer per (body, workload), in
	// pool order and under fixed seeds, so every run starts from the
	// same store: which input a transfer chain starts from decides much
	// of this workload's answer quality, and runs must compare.
	warm := xrand.New(0x57415253)
	for _, pr := range pairs {
		p.warm = append(p.warm, request{kind: postUpload, workload: pr.workload, upload: pr.upload, seed: freshSeed(warm)})
	}
	p.seq = &sequence{next: batches(r.Split())}
	p.ladder = &sequence{next: batches(r.Split())}
	return p, nil
}
