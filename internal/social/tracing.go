package social

import (
	"github.com/psp-framework/psp/internal/obs"
)

// SetTracer attaches (or, with nil, detaches) a span tracer, following
// the SetMetrics pattern: hot paths pay one atomic pointer load, and
// the nil tracer/span are full no-ops. Once attached, Search opens
// "store.search" spans carrying per-query cost attribution (stripes
// visited, posting entries scanned, delta sizes) and AddCountContext
// opens "store.add" spans with a "wal.append" child on durable stores.
// Every finished span, sampled or not, feeds the tracer registry's
// psp_trace_* series: they are the store's only per-call count, error
// and latency record (StoreMetrics keeps the domain counters).
func (s *Store) SetTracer(t *obs.Tracer) {
	s.trc.Store(t)
}

// Tracer returns the attached tracer (nil when untraced).
func (s *Store) Tracer() *obs.Tracer { return s.trc.Load() }

// ingestRef names the most recent recorded ingest span — the link the
// monitor uses to attach its delta run to the trace of the ingest that
// triggered it.
type ingestRef struct {
	traceID string
	spanID  string
	ended   chan struct{} // closed once the span has ended
}

// noteIngest publishes the ingest span reference for later linking and
// returns the func the caller runs once it has ended the span. It runs
// before the batch reaches the changefeed, so a consumer that reads
// LastIngestTrace on receiving a batch sees that batch's span (or a
// later one), never an earlier ingest's. Only sampled (recorded) spans
// are worth linking to; the monitor's debounce coalesces batches, so
// the reference names the *last* recorded ingest before a flush —
// earlier batches of the same flush window share the delta run but not
// the trace link.
func (s *Store) noteIngest(span *obs.Span) (ended func()) {
	if !span.Sampled() {
		return func() {}
	}
	ref := &ingestRef{traceID: span.TraceID, spanID: span.SpanID, ended: make(chan struct{})}
	s.lastIngest.Store(ref)
	return func() { close(ref.ended) }
}

// LastIngestTrace returns the (trace ID, span ID) of the most recent
// recorded ingest span, or empty strings when no traced ingest has
// happened. The monitor links its flush span to this reference so
// GET /v1/trace shows server → store → WAL → monitor as one trace. The
// reference is published before its batch and the span ends just after
// it, so LastIngestTrace returns only once that span has ended: a span
// linked under it (Tracer.StartLink) always starts after its parent
// finished, never inside it.
func (s *Store) LastIngestTrace() (traceID, spanID string) {
	if ref := s.lastIngest.Load(); ref != nil {
		<-ref.ended
		return ref.traceID, ref.spanID
	}
	return "", ""
}
