package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanAttr is one key/value cost-attribution pair attached to a span.
// Values are strings so the wire schema stays uniform; use the typed
// Span setters rather than formatting at call sites.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanEvent is a point-in-time annotation inside a span — a breaker
// trip, a retry decision, a degraded-page verdict. Offset is relative
// to the span start.
type SpanEvent struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset"`
	Attrs  []SpanAttr    `json:"attrs,omitempty"`
}

// Span is one timed operation in a trace. Spans are cheap value
// carriers, not synchronization points: a span must only be mutated
// from the goroutine that owns it (hand child spans to child
// goroutines, never share one). All methods are nil-safe so
// "tracing off" needs no branches at call sites.
type Span struct {
	TraceID  string
	SpanID   string
	ParentID string
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []SpanAttr
	Events   []SpanEvent
	Err      string

	tracer  *Tracer
	seq     uint64 // ring write index, set when the span is recorded
	sampled bool   // head-based decision, constant across the trace
	forced  bool   // record regardless of sampling (degraded/interesting)
	ended   atomic.Bool
}

// Recording reports whether attribute work is worth doing: the span
// exists and its trace was head-sampled (errors and slow spans are
// still captured either way, with whatever attrs were set).
func (s *Span) Recording() bool { return s != nil && s.sampled }

// Sampled reports whether the span's trace was head-sampled.
func (s *Span) Sampled() bool { return s != nil && (s.sampled || s.forced) }

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, SpanAttr{Key: key, Value: value})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, SpanAttr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	val := "false"
	if v {
		val = "true"
	}
	s.Attrs = append(s.Attrs, SpanAttr{Key: key, Value: val})
}

// Event records a point-in-time annotation (retry, breaker decision,
// timeout) at the current offset into the span.
func (s *Span) Event(name string, attrs ...SpanAttr) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, SpanEvent{Name: name, Offset: time.Since(s.Start), Attrs: attrs})
}

// Fail marks the span as errored. Errored spans are always recorded
// and logged, regardless of the sampling decision.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.Err = err.Error()
}

// ForceSample marks the span for recording regardless of the
// head-based decision — used for degraded/partial results that must
// stay diagnosable at any sampling rate.
func (s *Span) ForceSample() {
	if s == nil {
		return
	}
	s.forced = true
}

// End stamps the duration and hands the span to its tracer, which
// decides whether it reaches the ring/logs. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.Duration = time.Since(s.Start)
	s.tracer.finish(s)
}

// Discard ends the span without recording it — no ring entry, metric
// or log line — for a span opened ahead of work that then ran
// elsewhere. A later End is a no-op. Safe on nil.
func (s *Span) Discard() {
	if s != nil {
		s.ended.Store(true)
	}
}

const ctxSpan ctxKey = 100

// ContextWithSpan attaches a span to ctx; child spans started from
// that ctx link to it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxSpan, s)
}

// SpanFrom returns the span attached to ctx, or nil. The nil span is
// a full no-op recorder, so call sites never nil-check.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxSpan).(*Span)
	return s
}

// TracerOptions configures a Tracer. The zero value is usable:
// capacity 4096, probabilistic sampling off (errors, slow and forced
// spans are still captured), 250ms slow threshold, no logs, no
// metrics.
type TracerOptions struct {
	// Capacity bounds the span ring buffer (rounded up to a power of
	// two). Old spans are overwritten; /v1/trace is a flight recorder,
	// not an archive. Default 4096.
	Capacity int
	// SampleRate is the head-based probability in [0,1] that a new
	// trace records its spans. Errored, slow and force-sampled spans
	// are recorded regardless. 0 disables probabilistic sampling
	// entirely; 1 samples every trace.
	SampleRate float64
	// SlowThreshold marks spans at least this long as slow: recorded
	// and logged even when the trace lost the sampling coin toss.
	// Zero means the 250ms default; negative disables slow capture.
	SlowThreshold time.Duration
	// Logger receives slow and errored spans as structured records.
	Logger *slog.Logger
	// Registry receives span-count/duration metrics (psp_trace_*) so
	// traces and /v1/metrics cross-reference.
	Registry *Registry
}

// DefaultSlowThreshold is the slow-span cutoff when none is given.
const DefaultSlowThreshold = 250 * time.Millisecond

// spanMetrics is the pre-resolved recording surface for one span name.
type spanMetrics struct {
	total    *Counter
	errors   *Counter
	duration *Histogram
}

// Tracer mints and records spans. Recording is lock-free: finished
// spans that pass the keep filter are published into a bounded ring of
// atomic pointers; readers snapshot without blocking writers. A nil
// *Tracer is a no-op (Start returns a nil span), matching the metrics
// core's nil-safety ethos.
type Tracer struct {
	ring     []atomic.Pointer[Span]
	mask     uint64
	widx     atomic.Uint64
	rate     uint64 // sample iff next PRNG value < rate (0 never, MaxUint64 always)
	slow     time.Duration
	logger   *slog.Logger
	reg      *Registry
	rng      atomic.Uint64
	recorded *Counter
	dropped  *Counter
	mu       sync.Mutex
	names    atomic.Pointer[map[string]*spanMetrics]
}

// NewTracer builds a tracer. See TracerOptions for defaults.
func NewTracer(opts TracerOptions) *Tracer {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	var threshold uint64
	switch rate := opts.SampleRate; {
	case rate >= 1:
		threshold = math.MaxUint64
	case rate <= 0:
		threshold = 0
	default:
		threshold = uint64(rate * float64(math.MaxUint64))
	}
	slow := opts.SlowThreshold
	if slow == 0 {
		slow = DefaultSlowThreshold
	}
	logger := opts.Logger
	if logger == nil {
		logger = NopLogger()
	}
	t := &Tracer{
		ring:   make([]atomic.Pointer[Span], size),
		mask:   uint64(size - 1),
		rate:   threshold,
		slow:   slow,
		logger: logger,
		reg:    opts.Registry,
	}
	var seed [8]byte
	crand.Read(seed[:])
	t.rng.Store(binary.LittleEndian.Uint64(seed[:]) | 1)
	t.names.Store(&map[string]*spanMetrics{})
	if opts.Registry != nil {
		t.recorded = opts.Registry.Counter("psp_trace_spans_recorded_total",
			"Finished spans kept in the trace ring (sampled, errored, slow or forced).")
		t.dropped = opts.Registry.Counter("psp_trace_spans_dropped_total",
			"Finished spans discarded by the head-based sampling decision.")
	}
	return t
}

// next steps the tracer's splitmix64 PRNG; cheap enough for the
// per-trace sampling decision and ID minting without a lock.
func (t *Tracer) next() uint64 {
	z := t.rng.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const hexDigits = "0123456789abcdef"

func appendHex64(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(v>>uint(shift))&0xf])
	}
	return dst
}

func (t *Tracer) newTraceID() string {
	buf := make([]byte, 0, 32)
	buf = appendHex64(buf, t.next())
	buf = appendHex64(buf, t.next())
	return string(buf)
}

func (t *Tracer) newSpanID() string {
	buf := make([]byte, 0, 16)
	buf = appendHex64(buf, t.next())
	return string(buf)
}

// Start begins a span named name. If ctx carries a span, the new span
// joins its trace as a child and inherits the sampling decision;
// otherwise a new trace starts and the head-based coin is tossed. The
// returned context carries the new span. A nil tracer returns
// (ctx, nil) — the nil span records nothing, at no cost.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{Name: name, Start: time.Now(), tracer: t, SpanID: t.newSpanID()}
	if parent := SpanFrom(ctx); parent != nil {
		s.TraceID = parent.TraceID
		s.ParentID = parent.SpanID
		s.sampled = parent.sampled
	} else {
		s.TraceID = t.newTraceID()
		s.sampled = t.next() < t.rate
	}
	return ContextWithSpan(ctx, s), s
}

// StartRemote begins a span continuing the trace described by a W3C
// traceparent header value. An empty or malformed header starts a
// fresh local trace instead (same as Start on a bare context). Used
// by server middleware so a federated request stays one trace across
// the HTTP hop.
func (t *Tracer) StartRemote(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	traceID, parentID, sampled, ok := ParseTraceparent(traceparent)
	if !ok {
		return t.Start(ctx, name)
	}
	s := &Span{
		Name:     name,
		Start:    time.Now(),
		tracer:   t,
		SpanID:   t.newSpanID(),
		TraceID:  traceID,
		ParentID: parentID,
		sampled:  sampled,
	}
	return ContextWithSpan(ctx, s), s
}

// StartLink begins a span as a child of an already-finished span in
// another component's trace, identified by (traceID, parentID) — the
// monitor links its delta run back to the ingest span that triggered
// it this way. Invalid IDs fall back to a fresh trace. Linked spans
// are sampled: the referenced trace was recorded, so its continuation
// must be too.
func (t *Tracer) StartLink(ctx context.Context, name, traceID, parentID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if !validHex(traceID, 32) || !validHex(parentID, 16) {
		return t.Start(ctx, name)
	}
	s := &Span{
		Name:     name,
		Start:    time.Now(),
		tracer:   t,
		SpanID:   t.newSpanID(),
		TraceID:  traceID,
		ParentID: parentID,
		sampled:  true,
	}
	return ContextWithSpan(ctx, s), s
}

// spanName get-or-creates the per-name metric surface (COW map, same
// shape as HTTPMetrics routes).
func (t *Tracer) spanName(name string) *spanMetrics {
	if sm, ok := (*t.names.Load())[name]; ok {
		return sm
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.names.Load()
	if sm, ok := cur[name]; ok {
		return sm
	}
	sm := &spanMetrics{
		total: t.reg.Counter("psp_trace_spans_total",
			"Finished spans by name, sampled or not.", Label{"span", name}),
		errors: t.reg.Counter("psp_trace_span_errors_total",
			"Finished spans that ended in error, by name.", Label{"span", name}),
		duration: t.reg.Histogram("psp_trace_span_seconds",
			"Span duration by name.", DefaultLatencyBuckets, LatencyScale, Label{"span", name}),
	}
	next := make(map[string]*spanMetrics, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[name] = sm
	t.names.Store(&next)
	return sm
}

// finish applies the keep filter and publishes the span. Called once
// per span from End.
func (t *Tracer) finish(s *Span) {
	if t == nil {
		return
	}
	if t.reg != nil {
		sm := t.spanName(s.Name)
		sm.total.Inc()
		sm.duration.Observe(int64(s.Duration))
		if s.Err != "" {
			sm.errors.Inc()
		}
	}
	slow := t.slow > 0 && s.Duration >= t.slow
	if !s.sampled && !s.forced && s.Err == "" && !slow {
		t.dropped.Inc()
		return
	}
	t.recorded.Inc()
	idx := t.widx.Add(1) - 1
	s.seq = idx
	t.ring[idx&t.mask].Store(s)
	if s.Err != "" || slow {
		level := slog.LevelWarn
		msg := "slow span"
		if s.Err != "" {
			level = slog.LevelError
			msg = "span error"
		}
		t.logger.Log(context.Background(), level, msg,
			slog.String("span", s.Name),
			slog.String("trace_id", s.TraceID),
			slog.String("span_id", s.SpanID),
			slog.Duration("duration", s.Duration),
			slog.String("error", s.Err))
	}
}

// Spans returns up to limit of the most recently recorded spans,
// newest first. limit <= 0 means the whole ring.
func (t *Tracer) Spans(limit int) []*Span {
	if t == nil {
		return nil
	}
	n := len(t.ring)
	if limit <= 0 || limit > n {
		limit = n
	}
	// Walk backwards from the most recent write index, over the slots
	// written before the walk began. A slot is listed only if it still
	// holds the span of the index being walked: a writer that claimed
	// the index but has not stored yet leaves an older span (or nil)
	// there, and a write during the walk may reuse an old slot for a
	// newer span. Skipping both keeps the listing newest first.
	head := t.widx.Load()
	out := make([]*Span, 0, limit)
	for i := uint64(0); i < min(head, uint64(n)) && len(out) < limit; i++ {
		idx := head - 1 - i
		if s := t.ring[idx&t.mask].Load(); s != nil && s.seq == idx {
			out = append(out, s)
		}
	}
	return out
}

// TraceSpans returns every recorded span of one trace, ordered by
// start time (parents naturally precede children).
func (t *Tracer) TraceSpans(traceID string) []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for i := range t.ring {
		if s := t.ring[i].Load(); s != nil && s.TraceID == traceID {
			out = append(out, s)
		}
	}
	sortSpansByStart(out)
	return out
}

func sortSpansByStart(spans []*Span) {
	// Insertion sort: trace span counts are small and mostly ordered.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start.Before(spans[j-1].Start); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func validHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}
