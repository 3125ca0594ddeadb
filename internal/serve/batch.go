package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// batchItem is one item of an /estimate-batch job: its name and the
// request it describes. A resolution failure is carried in err and
// surfaces as a per-item "invalid" event rather than failing the job.
type batchItem struct {
	name string
	req  *request
	err  error
}

// newBatchItem builds the request a manifest item describes. A zero
// seed or repeats in the manifest means the default — the manifest
// cannot distinguish absent from zero, and the single path treats
// absent the same way.
func (s *Server) newBatchItem(src batch.Item) *batchItem {
	req := newRequest()
	if src.Workload != "" {
		req.workload = src.Workload
	}
	if src.Seed != 0 {
		req.seed = src.Seed
	}
	if src.Repeats != 0 {
		req.repeats = src.Repeats
	}
	err := s.resolve(req, src.Searcher)
	if err == nil {
		err = req.setInput(src.Body, src.Dataset)
	}
	if err != nil {
		return &batchItem{name: src.Name, err: fmt.Errorf("item %q: %w", src.Name, err)}
	}
	req.hint = s.featuresHint(src.Features)
	return &batchItem{name: src.Name, req: req}
}

// handleEstimateBatch serves POST /estimate-batch: many named items
// under one pool admission, with results streamed progressively as
// NDJSON/SSE events (coarse → refined per item, then a job summary)
// or buffered into one JSON document by content negotiation.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	done := s.metrics.RequestStarted("batch")
	code := s.estimateBatch(w, r, start)
	done(code, time.Since(start))
}

// estimateBatch runs one batch job and returns the HTTP status it
// answered with. All rejection bodies are written here; once streaming
// starts the status is committed as 200 and failures become per-item
// events.
func (s *Server) estimateBatch(w http.ResponseWriter, r *http.Request, start time.Time) int {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		err := fmt.Errorf("method %s not allowed (POST a batch manifest)", r.Method)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody(ctx, err))
		return http.StatusMethodNotAllowed
	}
	maxBytes := s.cfg.BatchMaxBytes
	if maxBytes <= 0 {
		maxBytes = s.cfg.MaxUploadBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	job, err := batch.ParseRequest(r, s.cfg.BatchMaxItems, maxBytes)
	if err != nil {
		status, codeStr := http.StatusBadRequest, "bad_manifest"
		var be *batch.Error
		if errors.As(err, &be) {
			status, codeStr = be.Status, be.Code
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, codeStr = http.StatusRequestEntityTooLarge, "too_large"
		}
		s.metrics.batchRejected.Inc()
		body := errorBody(ctx, err)
		body["code"] = codeStr
		s.logger.ErrorContext(ctx, "estimate-batch rejected",
			slog.Int("status", status), slog.String("code", codeStr), slog.Any("err", err))
		writeJSON(w, status, body)
		return status
	}

	// The whole-job deadline comes from the same sources as a single
	// request (?timeout= and the propagated X-Deadline-Ms budget); a
	// malformed or hopeless budget fails the job before any work.
	timeout, terr := s.requestTimeout(r)
	if terr != nil {
		status := statusFor(terr)
		var he *httpError
		if errors.As(terr, &he) {
			status = he.code
		}
		if status == http.StatusGatewayTimeout {
			s.metrics.deadlineExceeded.Inc()
		}
		writeJSON(w, status, errorBody(ctx, terr))
		return status
	}

	s.metrics.batchJobs.Inc()
	s.metrics.batchItems.Add(uint64(len(job.Items)))
	items := make([]*batchItem, len(job.Items))
	for i, src := range job.Items {
		items[i] = s.newBatchItem(src)
	}

	bw := batch.NewWriter(w, batch.Negotiate(r.Header.Get("Accept")))
	bw.Start(w)
	// The budget is anchored here — after body transfer, parsing and
	// fingerprinting — so it governs estimation work: a slow upload
	// shrinks its own transfer window, not every item's carve.
	jobCtx, cancel := context.WithDeadline(ctx, time.Now().Add(timeout))
	defer cancel()
	s.runBatch(jobCtx, bw, items, start)
	if err := bw.Close(); err != nil {
		s.logger.WarnContext(ctx, "estimate-batch stream closed early", slog.Any("err", err))
	}
	return http.StatusOK
}

// runBatch executes a resolved job and closes it with the summary
// trailer.
func (s *Server) runBatch(jobCtx context.Context, bw *batch.Writer, items []*batchItem, start time.Time) {
	summary := batch.Summary{Items: len(items)}
	buildsBefore := s.metrics.buildMisses.Value()
	emit := func(e batch.Event) { _ = bw.Emit(e) }
	s.runItems(jobCtx, items, emit, &summary)
	buildsAfter := s.metrics.buildMisses.Value()
	// Builds that actually ran: build-cache misses during the job,
	// approximate under concurrent single-request traffic.
	summary.Builds = int(buildsAfter - buildsBefore)
	summary.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	emit(batch.Event{Type: batch.EventSummary, Summary: &summary})
}

// runItems answers cache hits first, admits the rest under one
// aggregate admission (shedding the tail per item), holds one worker
// slot for the whole job, and runs admitted items sequentially with the
// remaining deadline budget re-carved before each one.
func (s *Server) runItems(jobCtx context.Context, items []*batchItem, emit func(batch.Event), summary *batch.Summary) {
	// Fast pass: invalid items answer immediately, cache hits answer
	// without admission — first results reach the client before any
	// pipeline runs.
	var pending []*batchItem
	for _, it := range items {
		if it.err != nil {
			summary.Failed++
			s.metrics.batchOutcomes.With("invalid").Inc()
			emit(batch.Event{Type: batch.EventError, Item: it.name, Code: batch.CodeInvalid, Error: it.err.Error()})
			continue
		}
		if resp, hit := s.cached(it.req); hit {
			summary.Completed++
			s.metrics.batchOutcomes.With("cached").Inc()
			emit(batch.Event{Type: batch.EventRefined, Item: it.name, Estimate: marshalEstimate(*resp)})
			continue
		}
		pending = append(pending, it)
	}

	admitted := 0
	if len(pending) > 0 {
		costs := make([]int64, len(pending))
		for i, it := range pending {
			costs[i] = it.req.cost()
		}
		_, aspan := obs.StartSpan(jobCtx, "batch.admit")
		aspan.SetAttr("items", strconv.Itoa(len(pending)))
		n, total, err := s.admission.AcquireBatch(jobCtx, costs)
		aspan.SetAttr("admitted", strconv.Itoa(n))
		aspan.SetAttr("cost", strconv.FormatInt(total, 10))
		aspan.RecordError(err)
		aspan.Finish()
		admitted = n
		if total > 0 {
			defer s.admission.Release(total)
		}
		if n > 0 {
			summary.Admissions = 1
		}
		if err != nil && errors.Is(err, resilience.ErrOverloaded) {
			s.metrics.shed.Inc()
		}
	}

	// The LIFO tail that admission could not fit: degrade or shed per
	// item, never 429 the whole job.
	for _, it := range pending[admitted:] {
		summary.Shed++
		s.metrics.batchOutcomes.With("shed").Inc()
		resp, ok := s.degraded(it.req)
		if !ok {
			emit(batch.Event{Type: batch.EventError, Item: it.name, Code: batch.CodeShed,
				Error: "admission at capacity: item shed from batch tail"})
			continue
		}
		summary.Degraded++
		emit(batch.Event{Type: batch.EventRefined, Item: it.name, Degraded: true,
			Code: batch.CodeShed, Estimate: marshalEstimate(*resp)})
	}

	run := pending[:admitted]
	if len(run) == 0 {
		return
	}
	// One worker slot bounds the whole job, exactly like one request.
	if err := s.acquireWorker(jobCtx); err != nil {
		for _, it := range run {
			summary.Failed++
			s.metrics.batchOutcomes.With("deadline").Inc()
			emit(batch.Event{Type: batch.EventError, Item: it.name,
				Code: batch.CodeDeadline, Error: err.Error()})
		}
		return
	}
	defer s.pool.Release()

	for i, it := range run {
		if jobCtx.Err() != nil && !errors.Is(jobCtx.Err(), context.DeadlineExceeded) {
			// Client gone: stop burning the pool on answers nobody
			// reads. (A job deadline still drains as per-item events.)
			summary.Failed += len(run) - i
			break
		}
		s.runBatchItem(jobCtx, it, len(run)-i, emit, summary)
	}
}

// runBatchItem runs one admitted item under its carved slice of the
// job's remaining deadline budget. Re-carving before each item —
// remaining / items left — means an item that finishes early donates
// its unused budget to its siblings, and one slow item can overrun
// only its own slice.
func (s *Server) runBatchItem(jobCtx context.Context, it *batchItem, itemsLeft int, emit func(batch.Event), sum *batch.Summary) {
	ictx := jobCtx
	cancel := func() {}
	if remaining, ok := resilience.Remaining(jobCtx); ok {
		per := remaining / time.Duration(itemsLeft)
		if per < resilience.MinBudget {
			sum.Failed++
			s.metrics.deadlineExceeded.Inc()
			s.metrics.batchOutcomes.With("deadline").Inc()
			emit(batch.Event{Type: batch.EventError, Item: it.name, Code: batch.CodeDeadline,
				Error: fmt.Sprintf("carved budget %v below minimum %v", per, resilience.MinBudget)})
			return
		}
		ictx, cancel = context.WithTimeout(jobCtx, per)
	}
	defer cancel()

	sctx, span := obs.StartSpan(ictx, "item.estimate")
	span.SetAttr("item", it.name)
	span.SetAttr("input", it.req.input)
	resp, err := s.run(sctx, it.req, modeItem, func(coarse EstimateResponse) {
		emit(batch.Event{Type: batch.EventCoarse, Item: it.name, Estimate: marshalEstimate(coarse)})
	})
	if err != nil {
		span.RecordError(err)
		span.Finish()
		code, outcome := classifyItemError(err)
		if code == batch.CodeDeadline {
			s.metrics.deadlineExceeded.Inc()
		}
		sum.Failed++
		s.metrics.batchOutcomes.With(outcome).Inc()
		emit(batch.Event{Type: batch.EventError, Item: it.name, Code: code, Error: err.Error()})
		return
	}
	span.Finish()
	sum.Completed++
	s.metrics.batchOutcomes.With("refined").Inc()
	emit(batch.Event{Type: batch.EventRefined, Item: it.name, Estimate: marshalEstimate(*resp)})
}

// classifyItemError maps a per-item pipeline error to its event code
// and metrics outcome label.
func classifyItemError(err error) (code, outcome string) {
	var he *httpError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return batch.CodeDeadline, "deadline"
	case errors.Is(err, resilience.ErrOverloaded):
		return batch.CodeShed, "shed"
	case errors.As(err, &he) && he.code >= 400 && he.code < 500:
		return batch.CodeInvalid, "invalid"
	default:
		return batch.CodeInternal, "error"
	}
}

// marshalEstimate renders a response as the opaque estimate payload of
// a batch event. EstimateResponse always marshals; a failure here is a
// programming error worth surfacing in the stream.
func marshalEstimate(resp EstimateResponse) json.RawMessage {
	b, err := json.Marshal(resp)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return b
}
