package psp

import (
	"io"
	"log/slog"
	"net/http"

	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/monitor"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// Observability types, re-exported from the obs core. The registry and
// its recorders are allocation-free and lock-free on the hot path:
// attaching metrics to a store, monitor or WAL does not add locks to
// the instrumented code.
type (
	// MetricsRegistry collects named metric families and renders them in
	// the Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// MetricsCounter is a monotonically increasing atomic counter.
	MetricsCounter = obs.Counter
	// MetricsGauge is an atomic last-value gauge.
	MetricsGauge = obs.Gauge
	// MetricsHistogram is a fixed-bucket atomic histogram with
	// exposition-time quantile estimation.
	MetricsHistogram = obs.Histogram
	// HTTPMetrics instruments HTTP routes: request IDs, per-route
	// status-class counters, latency histograms and access logging.
	HTTPMetrics = obs.HTTPMetrics

	// SocialStoreMetrics is the social store's recording surface
	// (psp_store_* and, through its WAL field, psp_wal_*): posts
	// inserted, changefeed, compaction, recovery and WAL counters. Attach
	// with SocialStore.SetMetrics or SocialDurableOptions.Metrics.
	// Per-call Add and Search counts, errors and latency are the
	// psp_trace_* series of a tracer (SocialStore.SetTracer): a store
	// with metrics but no tracer records no per-stage latency.
	SocialStoreMetrics = social.StoreMetrics
	// SocialStoreStats is a typed point-in-time snapshot of a store
	// (SocialStore.Stats): corpus size, shard count, changefeed backlog,
	// WAL floors, compaction volume and recovery paths.
	SocialStoreStats = social.StoreStats
	// WALMetrics is the write-ahead log's recording surface: append and
	// fsync latency, group-commit coalescing, segment rolls.
	WALMetrics = durable.LogMetrics
	// MonitorMetrics is the social monitor's recording surface
	// (psp_monitor_*). Attach with MonitorConfig.Metrics.
	MonitorMetrics = monitor.Metrics
	// TARAMonitorMetrics is the TARA fleet monitor's recording surface
	// (psp_tara_*). Attach with TARAMonitorConfig.Metrics.
	TARAMonitorMetrics = monitor.TARAMetrics
	// TARARegistryStats is a typed snapshot of a tenant registry
	// (TARARegistry.Stats): fleet size, dirty backlog and the cumulative
	// engine rating-call counter demonstrating incremental re-rating.
	TARARegistryStats = tara.RegistryStats

	// Tracer records spans into a bounded lock-free ring with head-based
	// sampling; export with Tracer.Handler (GET /v1/trace). See
	// internal/obs for the tracing model.
	Tracer = obs.Tracer
	// TracerOptions configures a Tracer: ring capacity, probabilistic
	// sample rate, slow-span threshold, logger and metrics registry.
	TracerOptions = obs.TracerOptions
	// Span is one timed operation in a trace, carrying cost-attribution
	// attributes and point-in-time events. Nil spans are safe no-ops.
	Span = obs.Span
)

// MetricsContentType is the Content-Type of the Prometheus text
// exposition served by MetricsRegistry.Handler and GET /v1/metrics.
const MetricsContentType = obs.ContentType

// RequestIDHeader carries a request's correlation ID; inbound values
// are honored, absent ones minted by the HTTP middleware.
const RequestIDHeader = obs.RequestIDHeader

// TraceparentHeader is the W3C trace-context header the HTTP middleware
// extracts and SocialClient injects, stitching pspd's server spans and
// sociald's backend spans into one distributed trace.
const TraceparentHeader = obs.TraceparentHeader

// Version identifies this build of the library in psp_build_info and
// daemon startup logs.
const Version = "0.10.0"

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSocialStoreMetrics registers the psp_store_* and psp_wal_* families
// in reg and returns the surface to attach to one store. Per-stage
// latency comes from a tracer on the same registry (NewTracer with
// TracerOptions.Registry), whose psp_trace_* series appear at each
// stage's first span.
func NewSocialStoreMetrics(reg *MetricsRegistry) *SocialStoreMetrics {
	return social.NewStoreMetrics(reg)
}

// NewMonitorMetrics registers the psp_monitor_* family in reg.
func NewMonitorMetrics(reg *MetricsRegistry) *MonitorMetrics { return monitor.NewMetrics(reg) }

// NewTARAMonitorMetrics registers the psp_tara_* family in reg.
func NewTARAMonitorMetrics(reg *MetricsRegistry) *TARAMonitorMetrics {
	return monitor.NewTARAMetrics(reg)
}

// NewHTTPMetrics registers the psp_http_* family in reg and returns
// route-wrapping middleware; logger (nil = discard) receives access
// logs carrying the request ID.
func NewHTTPMetrics(reg *MetricsRegistry, logger *slog.Logger) *HTTPMetrics {
	return obs.NewHTTPMetrics(reg, logger)
}

// MetricsHandler serves a registry's Prometheus exposition over GET.
func MetricsHandler(reg *MetricsRegistry) http.Handler { return reg.Handler() }

// PprofHandler serves net/http/pprof; mount it at /debug/pprof/. The
// daemons gate it behind their -pprof flag — it has no auth.
func PprofHandler() http.Handler { return obs.PprofHandler() }

// NewTracer builds a span tracer. Wire it everywhere one request
// travels: SocialStore.SetTracer, MonitorConfig.Tracer,
// TARAMonitorConfig.Tracer, MultiOptions.Tracer,
// HTTPMetrics.WithTracer (or MonitorAPI.WithTracing) — spans started
// by any of them join the same trace through the context.
func NewTracer(opts TracerOptions) *Tracer { return obs.NewTracer(opts) }

// TraceHandler serves a tracer's recorded spans as JSON over GET:
// ?trace_id= looks one trace up, ?limit= bounds the newest-first list.
func TraceHandler(t *Tracer) http.Handler { return t.Handler() }

// RegisterBuildInfo registers psp_build_info (version, go and VCS
// revision labels) plus process start-time/uptime gauges in reg.
func RegisterBuildInfo(reg *MetricsRegistry, version string) {
	obs.RegisterBuildInfo(reg, version)
}

// WriteMetrics renders a registry's Prometheus text exposition to w.
func WriteMetrics(w io.Writer, reg *MetricsRegistry) error { return reg.WritePrometheus(w) }

// NopLogger returns a logger that discards everything — the default
// wherever a *slog.Logger is optional.
func NopLogger() *slog.Logger { return obs.NopLogger() }
