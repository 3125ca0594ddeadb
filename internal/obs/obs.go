// Package obs is the repo's observability subsystem: request-scoped
// tracing, structured logging, and pipeline-stage profiling — all
// standard library.
//
// The paper's framework is a three-stage pipeline (Sample → Identify →
// Extrapolate); debugging partitioning decisions requires seeing where
// an estimate's time goes, not just whole-request latency. This
// package provides the pieces the serving stack (hetgate →
// hetserve → internal/core) shares:
//
//   - Tracing: a context-carried span tree. StartSpan opens a child of
//     the context's current span (or a root under the context's
//     Scope), and End records the finished span into a Sink. Trace
//     identity crosses process boundaries via W3C-style traceparent
//     headers (Inject on the client, Handler on the server), so one
//     trace ID follows a request from the gateway through a backend
//     into the core searchers.
//
//   - Structured logging: NewLogger builds a log/slog logger whose
//     records automatically carry trace_id, span_id and request_id
//     drawn from the context (ContextHandler).
//
//   - Profiling: the Sink doubles as a stage profiler — every finished
//     span feeds a fixed-bucket latency histogram keyed by span name,
//     registered as <service>_stage_seconds. Recent traces are
//     browsable as JSON at /debug/spans (Sink.Handler), and
//     RegisterPprof wires net/http/pprof into a mux behind an opt-in
//     flag.
//
//   - Metrics: a Registry of declared counters, scrape-time gauges and
//     histogram vectors with the one Prometheus text writer both
//     daemons' /metrics endpoints use.
//
// Everything is low-cardinality by construction: span names are
// static stage labels ("sample", "identify", "extrapolate", ...), so
// the stage histograms stay bounded.
package obs
