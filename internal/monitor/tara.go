package monitor

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/tara"
)

// TARAConfig configures a TARAMonitor.
type TARAConfig struct {
	// Framework supplies the worker pool (and, transitively, the shared
	// keyword DB and SAI the tenants' social tunings come from).
	Framework *core.Framework
	// Registry holds the tenants. Required; usually pre-populated, but
	// tenants created later are picked up through the dirty signal.
	Registry *tara.Registry
	// Social optionally bridges a social monitor: every published social
	// generation's ThreatTuning deltas are applied to all tenants,
	// marking exactly the affected threat IDs dirty.
	Social *Monitor
	// Debounce batches dirty-tenant signals before a rating pass
	// (default 100ms). It is also the idle threshold: a signal arriving
	// when no pass is scheduled, no retry is backing off and at least
	// Debounce has passed since the last pass ended is an isolated
	// change and is rated at once; a burst waits out Debounce after its
	// first signal.
	Debounce time.Duration
	// Metrics, when set, records rating-call deltas and dirty-threat
	// counts (see NewTARAMetrics).
	Metrics *TARAMetrics
	// Tracer, when set, records one "tara.rate" span per tenant
	// re-rate, attributing the pass's cost (dirty threats re-rated,
	// rating calls spent) to the tenant. The span is the pass's only
	// count, failure and latency record (psp_trace_* on the tracer's
	// registry); without a tracer none is kept.
	Tracer *obs.Tracer
	// Logger receives the fleet monitor's structured log lines; nil
	// discards.
	Logger *slog.Logger

	// clock is the fleet monitor's time source; NewTARAMonitor defaults
	// it to the wall clock.
	clock clock
}

// TARAMonitor continuously re-rates the dirty tenants of a registry: it
// tails the registry's dirty signal and, when bridged, the social
// monitor's assessment stream, so a product line of vehicle variants is
// re-assessed at once after an isolated model mutation or threat-feed
// change, and within one debounce interval during a burst — re-rating
// only the dirty threats of the dirty tenants.
type TARAMonitor struct {
	cfg TARAConfig

	// initialDone flips after the startup pass over every tenant — the
	// fleet's readiness signal (see Ready).
	initialDone atomic.Bool

	mu      sync.Mutex
	lastErr error
	// notify is closed and replaced on every publication, broadcasting
	// to WaitForTenant pollers.
	notify chan struct{}
}

// NewTARAMonitor validates the configuration.
func NewTARAMonitor(cfg TARAConfig) (*TARAMonitor, error) {
	if cfg.Framework == nil {
		return nil, fmt.Errorf("monitor: tara: nil framework")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("monitor: tara: nil registry")
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = 100 * time.Millisecond
	}
	if cfg.clock == nil {
		cfg.clock = realClock{}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	tm := &TARAMonitor{cfg: cfg, notify: make(chan struct{})}
	tm.registerGauges()
	return tm, nil
}

// Registry returns the tenant registry.
func (tm *TARAMonitor) Registry() *tara.Registry { return tm.cfg.Registry }

// LastError returns the most recent rating failure, cleared by the next
// successful pass.
func (tm *TARAMonitor) LastError() error {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.lastErr
}

// Run drives the rating loop until the context is cancelled: an initial
// pass over every tenant, then incremental passes over dirty tenants —
// at once for an isolated change, debounced for a burst (see
// TARAConfig.Debounce). Failed tenants are re-marked dirty and retried
// with the monitor's exponential backoff.
func (tm *TARAMonitor) Run(ctx context.Context) error {
	if tm.cfg.Social != nil {
		go tm.tailSocial(ctx)
	}
	// Initial pass: every tenant present at startup. Dirty marks are
	// deliberately not drained here — re-rating a clean tenant is a
	// no-op (its published assessment is kept), so a concurrent mark is
	// never lost and a duplicate one costs nothing. The pending signal
	// is consumed, though: every mark raised before the pass belongs to
	// a tenant the pass rates, and one raised during it signals again,
	// so the loop starts idle instead of with a no-op pass.
	select {
	case <-tm.cfg.Registry.Notify():
	default:
	}
	// A pass is due within one Debounce of the first signal of a
	// burst: maxLag = Debounce.
	sched := schedule{clock: tm.cfg.clock, debounce: tm.cfg.Debounce, maxLag: tm.cfg.Debounce}
	if !tm.ratePass(ctx, tm.cfg.Registry.Names()) {
		// The failed tenants are re-marked dirty: retry them after the
		// backoff, not at once.
		sched.fail()
	}
	tm.initialDone.Store(true)

	for {
		fired := false
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tm.cfg.Registry.Notify():
			fired = sched.arrive()
		case <-sched.timer:
			fired = true
		}
		if fired {
			sched.ran(!tm.ratePass(ctx, tm.cfg.Registry.TakeDirty()))
		}
	}
}

// ratePass rates the named tenants, re-marking failed ones dirty.
// Reports whether every tenant succeeded.
func (tm *TARAMonitor) ratePass(ctx context.Context, names []string) bool {
	met := tm.cfg.Metrics
	ok := true
	for _, name := range names {
		if ctx.Err() != nil {
			return false
		}
		ten, found := tm.cfg.Registry.Get(name)
		if !found {
			continue
		}
		prev := ten.Assessment()
		var prevCalls uint64
		if met != nil || tm.cfg.Tracer != nil {
			prevCalls = ten.RatingCalls()
		}
		_, span := tm.cfg.Tracer.Start(ctx, "tara.rate")
		span.SetAttr("tenant", name)
		cur, err := ten.Rate(tm.cfg.clock.Now(), func(p *tara.Plan) ([]*tara.ThreatResult, error) {
			return tm.cfg.Framework.RatePlan(ctx, p)
		})
		tm.mu.Lock()
		tm.lastErr = err
		tm.mu.Unlock()
		if err != nil {
			ok = false
			span.Fail(err)
			span.End()
			tm.cfg.Logger.Warn("tenant rating failed", "tenant", name, "error", err)
			tm.cfg.Registry.MarkDirty(name)
			continue
		}
		// Rate keeps the previous assessment when nothing is dirty — only
		// an actual re-rate advances the call and threat counters.
		if met != nil && cur != prev {
			met.RatingCalls.Add(ten.RatingCalls() - prevCalls)
			met.DirtyThreats.Observe(int64(cur.RatedThreats))
		}
		if span != nil {
			if cur != prev {
				span.SetBool("rerated", true)
				span.SetInt("dirty_threats", int64(cur.RatedThreats))
				span.SetInt("rating_calls", int64(ten.RatingCalls()-prevCalls))
				span.SetInt("generation", int64(cur.Generation))
			} else {
				span.SetBool("rerated", false)
			}
			span.End()
		}
		if cur != prev {
			tm.cfg.Logger.Debug("tenant rated",
				"tenant", name, "generation", cur.Generation,
				"rated_threats", cur.RatedThreats, "total_threats", cur.TotalThreats)
		}
		tm.broadcast()
	}
	return ok
}

// Ready reports whether the initial pass over every startup tenant has
// completed — the fleet half of the daemon's readiness gate.
func (tm *TARAMonitor) Ready() bool { return tm.initialDone.Load() }

func (tm *TARAMonitor) broadcast() {
	tm.mu.Lock()
	close(tm.notify)
	tm.notify = make(chan struct{})
	tm.mu.Unlock()
}

// tailSocial follows the social monitor's published assessments and
// applies each generation's threat tunings to every tenant. Tenants
// whose effective tables do not change stay clean — repeated identical
// learning outcomes cause no re-rating.
func (tm *TARAMonitor) tailSocial(ctx context.Context) {
	var gen uint64
	for {
		cur, err := tm.cfg.Social.WaitFor(ctx, gen+1)
		if err != nil {
			return
		}
		gen = cur.Generation
		if cur.Result == nil || len(cur.Result.Tunings) == 0 {
			continue
		}
		for _, name := range tm.cfg.Registry.Names() {
			ten, found := tm.cfg.Registry.Get(name)
			if !found {
				continue
			}
			_, err := ten.Mutate(func(a *tara.Analysis) (bool, error) {
				changed, err := core.ApplyTunings(a, cur.Result.Tunings)
				return len(changed) > 0, err
			})
			if err != nil {
				tm.mu.Lock()
				tm.lastErr = fmt.Errorf("monitor: tara: apply tunings to tenant %s: %w", name, err)
				tm.mu.Unlock()
			}
		}
	}
}

// WaitForTenant blocks until the named tenant has published an
// assessment with at least the given generation, or the context ends.
func (tm *TARAMonitor) WaitForTenant(ctx context.Context, name string, minGeneration uint64) (*tara.TenantAssessment, error) {
	for {
		tm.mu.Lock()
		ch := tm.notify
		tm.mu.Unlock()
		if ten, ok := tm.cfg.Registry.Get(name); ok {
			if cur := ten.Assessment(); cur != nil && cur.Generation >= minGeneration {
				return cur, nil
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
		}
	}
}
