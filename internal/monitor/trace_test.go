// Tracing integration: the monitor's delta flush must link into the
// ingest trace that triggered it, and the TARA fleet must attribute
// each tenant re-rate's cost in a "tara.rate" span.
package monitor

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

func attrMap(s *obs.Span) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for _, a := range s.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// pollSpan calls find until it returns a span or ctx ends. A monitor
// publishes its result before the span timing that work ends, so a test
// that waited for the result can read the ring before the span is in it.
func pollSpan(ctx context.Context, find func() *obs.Span) *obs.Span {
	for {
		if s := find(); s != nil {
			return s
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(time.Millisecond):
		}
	}
}

// TestMonitorFlushLinksIngestTrace: an ingest under a traced context
// must yield store.add in the caller's trace, and the debounced
// monitor flush — running on its own goroutine, after the ingest
// returned — must join that same trace as a child of the ingest span,
// carrying the delta-size and invalidation cost attrs.
func TestMonitorFlushLinksIngestTrace(t *testing.T) {
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	store.SetTracer(tr)

	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Framework: fw,
		Store:     store,
		Input:     core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}},
		Debounce:  20 * time.Millisecond,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(runCtx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("monitor did not stop after cancellation")
		}
	})
	waitCtx, waitCancel := context.WithTimeout(runCtx, 30*time.Second)
	defer waitCancel()
	first, err := m.WaitFor(waitCtx, 1)
	if err != nil {
		t.Fatalf("initial assessment: %v", err)
	}

	var delta []*social.Post
	for i := 0; i < 10; i++ {
		delta = append(delta, deltaPost(i, "hot new #chiptuning stage1 file"))
	}
	ctx, root := tr.Start(context.Background(), "test.ingest")
	if _, err := store.AddCountContext(ctx, delta...); err != nil {
		t.Fatal(err)
	}
	root.End()
	if _, err := m.WaitFor(waitCtx, first.Generation+1); err != nil {
		t.Fatal(err)
	}

	var spans []*obs.Span
	var add *obs.Span
	flush := pollSpan(waitCtx, func() (flush *obs.Span) {
		spans = tr.TraceSpans(root.TraceID)
		for _, s := range spans {
			switch s.Name {
			case "store.add":
				add = s
			case "monitor.flush":
				flush = s
			}
		}
		return flush
	})
	if add == nil {
		t.Fatalf("no store.add span in the ingest trace (%d spans)", len(spans))
	}
	if flush == nil {
		t.Fatalf("monitor.flush did not join the ingest trace %s (%d spans)", root.TraceID, len(spans))
	}
	if flush.ParentID != add.SpanID {
		t.Fatalf("monitor.flush parent %s, want the ingest span %s", flush.ParentID, add.SpanID)
	}
	got := attrMap(flush)
	if got["delta_posts"] != "10" {
		t.Fatalf("flush delta_posts = %q, want 10 (attrs %v)", got["delta_posts"], got)
	}
	if got["recomputed"] != "true" {
		t.Fatalf("flush recomputed = %q, want true", got["recomputed"])
	}
	for _, key := range []string{"invalidated_fills", "dirty_topics", "dirty_threats"} {
		if got[key] == "" {
			t.Fatalf("flush attrs = %v, missing %q", got, key)
		}
	}
}

// TestMonitorSaveSpanUnderFlush: a flush that re-ran the workflow saves
// the state after publishing it, under a "monitor.save" child span that
// carries the saved image's size — the size of the file on disk.
func TestMonitorSaveSpanUnderFlush(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	store := openSeededDurableStore(t, filepath.Join(dir, "store"))
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, stop := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Input:     core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}},
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
		Tracer:    tr,
	})
	defer stop()
	first := waitGen(t, m, 1)
	if err := store.Add(deltaPost(0, "hot new #chiptuning stage1 file")); err != nil {
		t.Fatal(err)
	}
	if cur := waitGen(t, m, first.Generation+1); !cur.Recomputed {
		t.Fatalf("on-topic post did not re-run the workflow: %+v", cur)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var flush *obs.Span
	save := pollSpan(ctx, func() *obs.Span {
		spans := tr.Spans(0)
		for _, s := range spans {
			if s.Name == "monitor.flush" && attrMap(s)["recomputed"] == "true" {
				flush = s
			}
		}
		for _, s := range spans {
			if flush != nil && s.Name == "monitor.save" && s.ParentID == flush.SpanID {
				return s
			}
		}
		return nil
	})
	if save == nil {
		t.Fatal("no monitor.save span under the recomputing flush")
	}
	if !save.Start.After(flush.Start) || save.Start.Add(save.Duration).After(flush.Start.Add(flush.Duration)) {
		t.Errorf("monitor.save [%v +%v] does not lie inside its flush [%v +%v]",
			save.Start, save.Duration, flush.Start, flush.Duration)
	}
	info, err := os.Stat(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := attrMap(save)["bytes"], fmt.Sprint(info.Size()); got != want {
		t.Errorf("monitor.save bytes = %s, want the state file's %s", got, want)
	}
}

// TestTARARateSpansAttributeCost: the fleet's initial pass records one
// tara.rate span per tenant with the re-rate cost, and a mutation's
// incremental pass records the dirty-threat and rating-call deltas.
func TestTARARateSpansAttributeCost(t *testing.T) {
	reg := tara.NewRegistry()
	genTenantFleet(t, reg, 3)
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})

	fw, err := core.New(core.Config{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTARAMonitor(TARAConfig{
		Framework: fw,
		Registry:  reg,
		Debounce:  10 * time.Millisecond,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tm.Run(runCtx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("tara monitor did not stop after cancellation")
		}
	})
	waitCtx, waitCancel := context.WithTimeout(runCtx, 30*time.Second)
	defer waitCancel()
	for _, name := range reg.Names() {
		if _, err := tm.WaitForTenant(waitCtx, name, 1); err != nil {
			t.Fatalf("initial assessment of tenant %s: %v", name, err)
		}
	}

	// rateSpan returns the earliest-started tara.rate span whose
	// attributes satisfy match. For a tenant that is its initial-pass
	// span, not a later no-op one: the tenants' creation marks stay in
	// the dirty set through the initial pass, so the next pass re-rates
	// them as no-ops.
	rateSpan := func(match func(attrs map[string]string) bool) *obs.Span {
		return pollSpan(waitCtx, func() (found *obs.Span) {
			for _, s := range tr.Spans(0) {
				if s.Name == "tara.rate" && match(attrMap(s)) && (found == nil || s.Start.Before(found.Start)) {
					found = s
				}
			}
			return found
		})
	}
	for _, name := range reg.Names() {
		s := rateSpan(func(attrs map[string]string) bool { return attrs["tenant"] == name })
		if s == nil {
			t.Fatalf("no tara.rate span for tenant %s", name)
		}
		got := attrMap(s)
		if got["rerated"] != "true" {
			t.Fatalf("initial pass for %s rerated=%q, want true", name, got["rerated"])
		}
		for _, key := range []string{"dirty_threats", "rating_calls", "generation"} {
			if got[key] == "" {
				t.Fatalf("tara.rate attrs for %s = %v, missing %q", name, got, key)
			}
		}
	}

	// One mutation: the incremental pass attributes exactly the dirty
	// slice to the mutated tenant.
	target, _ := reg.Get("t01")
	genBefore := target.Assessment().Generation
	hot, err := tara.NewVectorTable("hot", map[tara.AttackVector]tara.FeasibilityRating{
		tara.VectorPhysical: tara.FeasibilityHigh, tara.VectorLocal: tara.FeasibilityHigh,
		tara.VectorAdjacent: tara.FeasibilityHigh, tara.VectorNetwork: tara.FeasibilityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Mutate(func(a *tara.Analysis) (bool, error) {
		return a.SetThreatTable(a.Threats[0].ID, hot)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tm.WaitForTenant(waitCtx, "t01", genBefore+1); err != nil {
		t.Fatal(err)
	}

	incremental := rateSpan(func(attrs map[string]string) bool {
		return attrs["tenant"] == "t01" && attrs["generation"] == fmt.Sprint(genBefore+1)
	})
	if incremental == nil {
		t.Fatal("no tara.rate span for the incremental re-rate")
	}
	got := attrMap(incremental)
	if got["rerated"] != "true" || got["dirty_threats"] != "1" {
		t.Fatalf("incremental tara.rate attrs = %v, want rerated with 1 dirty threat", got)
	}
}
