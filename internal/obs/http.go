package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries the request correlation ID. The middleware
// honors an inbound value (so IDs propagate across services) or
// generates one, and always echoes it on the response.
const RequestIDHeader = "X-Request-ID"

type ctxKey int

const (
	ctxRequestID ctxKey = iota
	ctxLogger
)

// ContextWithRequestID attaches a request ID to ctx.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxRequestID, id)
}

// RequestIDFrom returns the request ID attached to ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxRequestID).(string)
	return id
}

// ContextWithLogger attaches a request-scoped logger to ctx.
func ContextWithLogger(ctx context.Context, lg *slog.Logger) context.Context {
	return context.WithValue(ctx, ctxLogger, lg)
}

// LoggerFrom returns the request-scoped logger attached to ctx (which
// the middleware pre-loads with the request_id attribute), or a
// discard logger so call sites never nil-check.
func LoggerFrom(ctx context.Context) *slog.Logger {
	if lg, ok := ctx.Value(ctxLogger).(*slog.Logger); ok && lg != nil {
		return lg
	}
	return NopLogger()
}

var nopLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// NopLogger returns a logger that discards everything.
func NopLogger() *slog.Logger { return nopLogger }

// routeMetrics is the pre-resolved recording surface for one route:
// one request counter per status class plus a latency histogram.
type routeMetrics struct {
	classes [6]*Counter // indexed by status/100 (1xx..5xx; 0 spare)
	latency *Histogram
}

// HTTPMetrics instruments HTTP handlers with per-route request counts
// (split by status class), latency histograms, X-Request-ID
// propagation and structured access logs. Route metric lookups read a
// copy-on-write map — the per-request path is atomics only after a
// route's first request.
type HTTPMetrics struct {
	reg      *Registry
	logger   *slog.Logger
	tracer   *Tracer
	mu       sync.Mutex
	routes   atomic.Pointer[map[string]*routeMetrics]
	idPrefix string
	idSeq    atomic.Uint64
	now      func() time.Time // the latency clock; tests step it
}

// NewHTTPMetrics builds middleware recording into reg and logging
// through logger (nil for no access logs).
func NewHTTPMetrics(reg *Registry, logger *slog.Logger) *HTTPMetrics {
	if logger == nil {
		logger = NopLogger()
	}
	var seed [6]byte
	rand.Read(seed[:])
	hm := &HTTPMetrics{reg: reg, logger: logger, idPrefix: hex.EncodeToString(seed[:]), now: time.Now}
	hm.routes.Store(&map[string]*routeMetrics{})
	return hm
}

// WithTracer makes the middleware open one server span per request:
// an inbound traceparent header is continued (so a federated call
// stays one trace across the hop), otherwise a fresh trace starts.
// Returns hm for chaining; nil-safe on both sides.
func (hm *HTTPMetrics) WithTracer(t *Tracer) *HTTPMetrics {
	if hm != nil {
		hm.tracer = t
	}
	return hm
}

// newRequestID mints a process-unique request ID: a random per-process
// prefix plus a sequence number.
func (hm *HTTPMetrics) newRequestID() string {
	return hm.idPrefix + "-" + strconv.FormatUint(hm.idSeq.Add(1), 16)
}

// route get-or-creates the recording surface for one route label.
func (hm *HTTPMetrics) route(route string) *routeMetrics {
	if rm, ok := (*hm.routes.Load())[route]; ok {
		return rm
	}
	hm.mu.Lock()
	defer hm.mu.Unlock()
	cur := *hm.routes.Load()
	if rm, ok := cur[route]; ok {
		return rm
	}
	rm := &routeMetrics{
		latency: hm.reg.Histogram("psp_http_request_seconds",
			"HTTP request latency by route.",
			DefaultLatencyBuckets, LatencyScale, Label{"route", route}),
	}
	for class := 1; class <= 5; class++ {
		rm.classes[class] = hm.reg.Counter("psp_http_requests_total",
			"HTTP requests by route and status class.",
			Label{"route", route}, Label{"code", strconv.Itoa(class) + "xx"})
	}
	next := make(map[string]*routeMetrics, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[route] = rm
	hm.routes.Store(&next)
	return rm
}

// Wrap instruments next under a fixed route label (resolved once, so
// the request path never touches the route map).
func (hm *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	if hm == nil {
		return next
	}
	rm := hm.route(route)
	return hm.instrument(func(*http.Request) string { return route }, func(*http.Request) *routeMetrics { return rm }, next)
}

// Instrument instruments next, deriving the route label per request —
// for handlers that multiplex several routes internally. Unbounded
// label values would bloat the registry; routeOf should normalize.
func (hm *HTTPMetrics) Instrument(routeOf func(*http.Request) string, next http.Handler) http.Handler {
	if hm == nil {
		return next
	}
	return hm.instrument(routeOf, func(r *http.Request) *routeMetrics { return hm.route(routeOf(r)) }, next)
}

func (hm *HTTPMetrics) instrument(routeOf func(*http.Request) string, metricsOf func(*http.Request) *routeMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := hm.now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > 128 {
			id = hm.newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		lg := hm.logger.With(slog.String("request_id", id))
		ctx := ContextWithLogger(ContextWithRequestID(r.Context(), id), lg)
		var span *Span
		if hm.tracer != nil {
			route := routeOf(r)
			ctx, span = hm.tracer.StartRemote(ctx, "http.server "+route, r.Header.Get(TraceparentHeader))
			span.SetAttr("method", r.Method)
			span.SetAttr("route", route)
			span.SetAttr("request_id", id)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := hm.now().Sub(t0)
		if span != nil {
			span.SetInt("status", int64(sw.status))
			if sw.status >= 500 {
				span.Fail(errServerStatus(sw.status))
			}
			span.End()
		}
		rm := metricsOf(r)
		rm.latency.Observe(int64(elapsed))
		class := sw.status / 100
		if class < 1 || class > 5 {
			class = 5
		}
		rm.classes[class].Inc()
		level := slog.LevelDebug
		switch {
		case sw.status >= 500:
			level = slog.LevelError
		case sw.status >= 400:
			level = slog.LevelWarn
		}
		lg.Log(ctx, level, "http request",
			slog.String("method", r.Method),
			slog.String("route", routeOf(r)),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed))
	})
}

// errServerStatus is the synthetic error recorded on server spans
// whose handler answered 5xx.
type errServerStatus int

func (e errServerStatus) Error() string { return "http status " + strconv.Itoa(int(e)) }

// statusWriter records the status code and body size of a response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes when the underlying writer supports
// them (SSE-style handlers).
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// PprofHandler returns the standard runtime profiling mux
// (net/http/pprof) for opt-in mounting under /debug/pprof/ behind a
// daemon flag — profiling endpoints expose internals and must never be
// on by default.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
