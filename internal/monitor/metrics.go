package monitor

import "github.com/psp-framework/psp/internal/obs"

// Metrics is the social monitor's recording surface. All fields are
// obs recorders (atomic, nil-safe); nil *Metrics disables recording.
// Flush counts, failures and latency are the psp_trace_* series of the
// "monitor.flush" span (Config.Tracer).
type Metrics struct {
	// Generations counts published assessments; Recomputes the subset
	// that actually re-ran the workflow (the rest re-published the
	// previous result because the delta matched no cached listing).
	Generations *obs.Counter
	Recomputes  *obs.Counter
	// PublishLatency is the arrival-to-publish latency: first batch of
	// a flush window → assessment published. A delta that owes no work
	// publishes at once, so its observation is the classification and
	// publication cost alone.
	PublishLatency *obs.Histogram
	// DeltaPosts is the per-flush delta size distribution.
	DeltaPosts *obs.Histogram

	reg *obs.Registry
}

// NewMetrics registers the psp_monitor_* family in reg and returns the
// recording surface for one Monitor. Gauge-valued readings
// (generation, assessment age, last-error age) register as
// exposition-time callbacks when the monitor is constructed.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Generations: reg.Counter("psp_monitor_generations_total", "Assessments published."),
		Recomputes: reg.Counter("psp_monitor_recomputes_total",
			"Published assessments that re-ran the workflow."),
		PublishLatency: reg.Histogram("psp_monitor_publish_seconds",
			"Arrival-to-publish latency: first batch of a flush window to assessment publication (a delta that owes no work publishes at once, whatever the debounce).",
			obs.DefaultLatencyBuckets, obs.LatencyScale),
		DeltaPosts: reg.Histogram("psp_monitor_delta_posts", "Posts per re-assessment delta.",
			obs.DefaultSizeBuckets, 1),
		reg: reg,
	}
}

// registerGauges binds the monitor-state callbacks into the registry.
func (m *Monitor) registerGauges() {
	met := m.cfg.Metrics
	if met == nil || met.reg == nil {
		return
	}
	met.reg.GaugeFunc("psp_monitor_generation", "Current assessment generation (0 before the initial run).",
		func() float64 {
			if cur := m.Assessment(); cur != nil {
				return float64(cur.Generation)
			}
			return 0
		})
	met.reg.GaugeFunc("psp_monitor_assessment_age_seconds",
		"Seconds since the current assessment was published (-1 before the initial run).",
		func() float64 {
			if cur := m.Assessment(); cur != nil {
				return m.cfg.clock.Now().Sub(cur.UpdatedAt).Seconds()
			}
			return -1
		})
	met.reg.GaugeFunc("psp_monitor_last_error_age_seconds",
		"Seconds since the monitor entered its current error state (0 = healthy).",
		func() float64 {
			m.mu.Lock()
			at := m.lastErrAt
			m.mu.Unlock()
			if at.IsZero() {
				return 0
			}
			return m.cfg.clock.Now().Sub(at).Seconds()
		})
}

// TARAMetrics is the TARA fleet monitor's recording surface.
// Per-tenant pass counts, failures and latency are the psp_trace_*
// series of the "tara.rate" span (TARAConfig.Tracer).
type TARAMetrics struct {
	// RatingCalls accumulates engine rating calls made by monitor
	// passes — the delta of TenantAssessment.RatingCalls across
	// publications, so it grows with dirty threats, not model size.
	RatingCalls *obs.Counter
	// DirtyThreats is the threats-re-rated-per-pass distribution.
	DirtyThreats *obs.Histogram

	reg *obs.Registry
}

// NewTARAMetrics registers the psp_tara_* family in reg.
func NewTARAMetrics(reg *obs.Registry) *TARAMetrics {
	return &TARAMetrics{
		RatingCalls: reg.Counter("psp_tara_rating_calls_total",
			"Engine rating calls made by monitor passes (grows with dirty threats, not model size)."),
		DirtyThreats: reg.Histogram("psp_tara_rated_threats", "Threats re-rated per tenant pass.",
			obs.DefaultSizeBuckets, 1),
		reg: reg,
	}
}

// registerGauges binds registry-state callbacks: fleet size and dirty
// backlog.
func (tm *TARAMonitor) registerGauges() {
	met := tm.cfg.Metrics
	if met == nil || met.reg == nil {
		return
	}
	reg := tm.cfg.Registry
	met.reg.GaugeFunc("psp_tara_tenants", "Tenants in the TARA registry.",
		func() float64 { return float64(reg.Len()) })
	met.reg.GaugeFunc("psp_tara_dirty_tenants", "Tenants awaiting re-rating.",
		func() float64 { return float64(reg.Stats().DirtyTenants) })
}
