// Scheduling tests: an isolated delta runs the moment it lands, a
// follow-up inside the debounce window waits for the trailing edge,
// and a failure streak keeps its backoff. The Schedule tests set
// Debounce (and MaxLag) to one hour, so every "prompt" publication is
// the leading edge and every "not yet" is the trailing debounce — no
// timing margin to flake on.
package monitor

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// TestScheduleIsolatedIngestRunsAtOnce: the first ingest after the
// initial assessment reaches an idle monitor and publishes at once; a
// second ingest right after it lands inside the debounce window and
// waits for the trailing edge.
func TestScheduleIsolatedIngestRunsAtOnce(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Input:     core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}},
		Debounce:  time.Hour,
		MaxLag:    time.Hour,
	})
	first := waitGen(t, m, 1)

	if err := store.Add(deltaPost(1, "isolated #chiptuning stage1 file")); err != nil {
		t.Fatal(err)
	}
	cur := waitGen(t, m, first.Generation+1)
	if cur.Ingested != 1 || !cur.Recomputed {
		t.Fatalf("isolated ingest published Ingested=%d Recomputed=%v, want 1 recomputed", cur.Ingested, cur.Recomputed)
	}

	if err := store.Add(deltaPost(2, "follow-up #chiptuning remap")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if next, err := m.WaitFor(ctx, cur.Generation+1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follow-up ingest published generation %d inside the debounce window", next.Generation)
	}
}

// TestScheduleTARAOpOnQuietFleet: a tenant mutation on a fleet that
// has been quiet since its initial pass is re-rated at once.
func TestScheduleTARAOpOnQuietFleet(t *testing.T) {
	reg := tara.NewRegistry()
	genTenantFleet(t, reg, 3)
	tm := runTARAMonitor(t, TARAConfig{Registry: reg, Debounce: time.Hour})

	target, _ := reg.Get("t01")
	before := target.Assessment()
	if _, err := target.Mutate(func(a *tara.Analysis) (bool, error) {
		return a.SetThreatTable(a.Threats[0].ID, hotTable(t))
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := tm.WaitForTenant(ctx, "t01", before.Generation+1)
	if err != nil {
		t.Fatalf("mutation on a quiet fleet not re-rated promptly: %v", err)
	}
	if cur.RatedThreats != 1 {
		t.Fatalf("re-rate covered %d threats, want the 1 mutated", cur.RatedThreats)
	}
}

// TestScheduleTARANotifyDuringFailureStreak: once a pass has failed,
// the retry waits out its backoff — a mutation of another tenant in
// the meantime does not start an early pass.
func TestScheduleTARANotifyDuringFailureStreak(t *testing.T) {
	reg := tara.NewRegistry()
	genTenantFleet(t, reg, 2)
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	runTARAMonitor(t, TARAConfig{Registry: reg, Debounce: time.Hour, Tracer: tr})

	// Every pass re-rates the dirty, still broken t01: its failed
	// tara.rate spans count the passes.
	failedPasses := func() (n int) {
		for _, s := range tr.Spans(0) {
			if s.Name == "tara.rate" && s.Err != "" {
				n++
			}
		}
		return n
	}

	// Break t01: a damage scenario naming an unknown asset fails
	// validation, so its next rating attempt fails. A pass rates its
	// tenants in name order, so once t01 has failed that pass has no
	// tenant left to rate: the mutation below cannot join it.
	broken, _ := reg.Get("t01")
	if _, err := broken.Mutate(func(a *tara.Analysis) (bool, error) {
		a.Damages[0].AssetIDs = append(a.Damages[0].AssetIDs, "no-such-asset")
		a.Invalidate()
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if failedPasses() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the broken tenant was never rated")
		}
		time.Sleep(time.Millisecond)
	}

	other, _ := reg.Get("t00")
	gen := other.Assessment().Generation
	if _, err := other.Mutate(func(a *tara.Analysis) (bool, error) {
		return a.SetThreatTable(a.Threats[0].ID, hotTable(t))
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if got := other.Assessment().Generation; got != gen {
		t.Fatalf("t00 re-rated (generation %d → %d) during the failure backoff", gen, got)
	}
	if n := failedPasses(); n != 1 {
		t.Fatalf("%d passes failed on the broken tenant, want 1: the backoff was cut short", n)
	}
}

// hotTable rates every attack vector High.
func hotTable(t *testing.T) *tara.VectorTable {
	t.Helper()
	hot, err := tara.NewVectorTable("hot", map[tara.AttackVector]tara.FeasibilityRating{
		tara.VectorPhysical: tara.FeasibilityHigh, tara.VectorLocal: tara.FeasibilityHigh,
		tara.VectorAdjacent: tara.FeasibilityHigh, tara.VectorNetwork: tara.FeasibilityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hot
}

// TestMonitorRetriesBackOffUnderSteadyIngest: during a platform outage
// a steady ingest stream joins the pending retry instead of re-arming
// the debounce, so consecutive failed flushes stay retryDelay apart
// (exponential backoff) rather than one debounce or MaxLag apart.
func TestMonitorRetriesBackOffUnderSteadyIngest(t *testing.T) {
	store, err := social.DefaultStore(21)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySearcher{inner: store}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	const debounce = 20 * time.Millisecond
	m, _ := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Searcher:  flaky,
		Debounce:  debounce,
		MaxLag:    2 * debounce,
		Tracer:    tr,
	})
	waitGen(t, m, 1)

	failedFlushes := func() []*obs.Span {
		var out []*obs.Span
		for _, s := range tr.Spans(0) {
			if s.Name == "monitor.flush" && s.Err != "" {
				out = append([]*obs.Span{s}, out...) // oldest first
			}
		}
		return out
	}

	// Trip the platform and stream a topical post every 5 ms until five
	// flushes have failed: four backoff gaps, the last 8× the debounce.
	flaky.fail.Store(true)
	stop := make(chan struct{})
	streamed := make(chan error, 1)
	go func() {
		for i := 100; ; i++ {
			select {
			case <-stop:
				streamed <- nil
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := store.Add(deltaPost(i, "outage-time #chiptuning remap")); err != nil {
				streamed <- err
				return
			}
		}
	}()
	const attempts = 5
	deadline := time.Now().Add(30 * time.Second)
	for len(failedFlushes()) < attempts && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-streamed; err != nil {
		t.Fatal(err)
	}
	failed := failedFlushes()
	if len(failed) < attempts {
		t.Fatalf("%d failed flushes within 30 s, want %d", len(failed), attempts)
	}
	joined := false
	for i := 1; i < attempts; i++ {
		gap := failed[i].Start.Sub(failed[i-1].Start)
		if want := (&schedule{debounce: debounce, failStreak: uint(i - 1)}).retryDelay(); gap < want {
			t.Fatalf("failed flush %d came %v after the previous one, want ≥ %v (backoff cut short by ingest)", i, gap, want)
		}
		joined = joined || attrMap(failed[i])["delta_posts"] != "0"
	}
	if !joined {
		t.Fatal("no retry flush carried posts: the stream did not join the retries")
	}
}
