// Scheduling tests: an isolated delta runs the moment it lands, a
// follow-up inside the debounce window waits for the trailing edge,
// and a failure streak keeps its backoff. The Schedule tests set
// Debounce (and MaxLag) to one hour, so every "prompt" publication is
// the leading edge and every "not yet" is the trailing debounce — no
// timing margin to flake on.
package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
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
	m, first := hourMonitor(t, store, store)

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
	quiet(t, m, cur.Generation, "a follow-up ingest inside the debounce window")
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

// fillerPost matches no monitored query: it drops no cached fill, so
// the delta it forms owes no work.
func fillerPost(i int) *social.Post {
	return deltaPost(i, "completely #offtopic chatter")
}

// hourMonitor runs a monitor over store with Debounce = MaxLag = 1 h,
// querying the platform through searcher, and returns it with its
// initial assessment.
func hourMonitor(t *testing.T, store *social.Store, searcher social.Searcher) (*Monitor, *Assessment) {
	t.Helper()
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Searcher:  searcher,
		Input:     core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}},
		Debounce:  time.Hour,
		MaxLag:    time.Hour,
	})
	return m, waitGen(t, m, 1)
}

// quiet asserts that the monitor publishes nothing past gen for 200 ms.
func quiet(t *testing.T, m *Monitor, gen uint64, what string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if next, err := m.WaitFor(ctx, gen+1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s published generation %d", what, next.Generation)
	}
}

// TestScheduleNoWorkFillerPublishesAtOnce: a delta that drops no cached
// fill publishes at once, whatever the debounce — the previous result,
// fresh metadata, and not one platform query.
func TestScheduleNoWorkFillerPublishesAtOnce(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapSearcher{inner: store}
	m, first := hourMonitor(t, store, tap)
	tap.calls.Store(0)

	for i := 1; i <= 3; i++ {
		if err := store.Add(fillerPost(i)); err != nil {
			t.Fatal(err)
		}
		cur := waitGen(t, m, first.Generation+uint64(i))
		if cur.Recomputed || cur.Result != first.Result || cur.Ingested != i {
			t.Fatalf("filler %d published Recomputed=%v, same result %v, Ingested=%d; want a metadata-only generation covering it",
				i, cur.Recomputed, cur.Result == first.Result, cur.Ingested)
		}
	}
	if n := tap.calls.Load(); n != 0 {
		t.Fatalf("no-work publications cost %d platform queries, want 0", n)
	}
}

// TestScheduleNoWorkLeavesLeadingEdge: a no-work publication records no
// schedule pass, so an on-topic batch right after it is still the
// leading edge and runs at once.
func TestScheduleNoWorkLeavesLeadingEdge(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	m, first := hourMonitor(t, store, store)
	if err := store.Add(fillerPost(1)); err != nil {
		t.Fatal(err)
	}
	filler := waitGen(t, m, first.Generation+1)
	if filler.Recomputed {
		t.Fatal("the filler batch re-ran the workflow")
	}
	if err := store.Add(deltaPost(2, "isolated #chiptuning stage1 file")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := m.WaitFor(ctx, filler.Generation+1)
	if err != nil {
		t.Fatalf("on-topic batch after a no-work publication not assessed at once: %v", err)
	}
	if !cur.Recomputed || cur.Ingested != 2 {
		t.Fatalf("on-topic batch published Recomputed=%v Ingested=%d, want a recompute covering both", cur.Recomputed, cur.Ingested)
	}
}

// TestScheduleNoWorkJoinsPendingWindow: while an on-topic batch waits on
// the trailing debounce, a filler batch joins its window instead of
// publishing ahead of it — a generation must never cover posts whose
// owed work has not run.
func TestScheduleNoWorkJoinsPendingWindow(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	m, first := hourMonitor(t, store, store)
	if err := store.Add(deltaPost(1, "isolated #chiptuning stage1 file")); err != nil {
		t.Fatal(err)
	}
	lead := waitGen(t, m, first.Generation+1)
	if !lead.Recomputed {
		t.Fatal("the leading-edge batch did not re-run the workflow")
	}
	// Inside the debounce window: this one waits for the trailing edge.
	if err := store.Add(deltaPost(2, "follow-up #chiptuning remap")); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(fillerPost(3)); err != nil {
		t.Fatal(err)
	}
	quiet(t, m, lead.Generation, "a filler batch behind a pending on-topic batch")
}

// TestScheduleNoWorkDuringRetryStreak: after a failed flush the dropped
// fills are still owed, so a filler batch cannot republish the stale
// result — it waits for the retry.
func TestScheduleNoWorkDuringRetryStreak(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySearcher{inner: store}
	m, first := hourMonitor(t, store, flaky)
	flaky.fail.Store(true)
	if err := store.Add(deltaPost(1, "outage-time #chiptuning remap")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.LastError() == nil {
		if time.Now().After(deadline) {
			t.Fatal("flush failure never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if err := store.Add(fillerPost(2)); err != nil {
		t.Fatal(err)
	}
	quiet(t, m, first.Generation, "a filler batch during the retry backoff")
}

// TestScheduleNoWorkModelMatchesColdRun is the seeded model test of the
// no-work path: random on-topic and filler batches, some back to back
// so fillers land in a pending window, some alone so they publish at
// once. Every generation the test observes must export byte-identically
// to a cold RunSocial over the reference corpus plus the posts its
// Ingested covers. Only a group's first batch may be on-topic. A delta
// run patches the listings its batches match and reads the live store
// only to drain a query it has never drained — at a cold start, or
// when learning adds keywords to a group. Such a drain may already see
// the fillers added behind the batch, which join no listing and cannot
// move a result, but it could also list an on-topic post still queued
// on the feed, which no generation has counted yet. This test's posts
// never change the learned keywords, and it passes with on-topic posts
// in any batch, but that would test a guarantee the monitor does not
// make, so the rule stays.
func TestScheduleNoWorkModelMatchesColdRun(t *testing.T) {
	base, err := social.Generate(social.DefaultCorpusSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	newStore := func() *social.Store {
		s := social.NewStore()
		for i := 0; i < len(base); i += 10 {
			if err := s.Add(base[i]); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	store := newStore()
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Input:     in,
		Debounce:  2 * time.Millisecond,
		MaxLag:    10 * time.Millisecond,
	})
	waitGen(t, m, 1)

	// Record every generation the watcher sees (a burst may publish two
	// before it wakes; the skipped one goes unchecked).
	var (
		seenMu sync.Mutex
		seen   []*Assessment
	)
	watchCtx, stopWatch := context.WithCancel(context.Background())
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		var gen uint64
		for {
			cur, err := m.WaitFor(watchCtx, gen+1)
			if err != nil {
				return
			}
			gen = cur.Generation
			seenMu.Lock()
			seen = append(seen, cur)
			seenMu.Unlock()
		}
	}()

	rng := rand.New(rand.NewSource(20))
	onTopic := []string{"hot new #chiptuning stage1 file", "#ecutune remap on the bench", "stage1 #chiptuning done"}
	var added []*social.Post
	for group := 0; group < 24; group++ {
		for b := 0; b < 1+rng.Intn(4); b++ {
			var batch []*social.Post
			for p := 0; p < 1+rng.Intn(3); p++ {
				i := len(added) + len(batch)
				post := fillerPost(i)
				if b == 0 && rng.Intn(2) == 0 {
					post = deltaPost(i, onTopic[rng.Intn(len(onTopic))])
				}
				batch = append(batch, post)
			}
			if err := store.Add(batch...); err != nil {
				t.Fatal(err)
			}
			added = append(added, batch...)
		}
		for cur := m.Assessment(); cur.Ingested < len(added); {
			cur = waitGen(t, m, cur.Generation+1)
		}
	}
	stopWatch()
	<-watched

	ref := newStore()
	refAdded := 0
	exported := func(res *core.SocialResult) []byte {
		rs, err := core.ExportResult(res)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var atOnce, recomputed int
	for _, a := range seen {
		if a.Ingested < refAdded {
			t.Fatalf("generation %d covers %d posts, fewer than an earlier one (%d)", a.Generation, a.Ingested, refAdded)
		}
		if err := ref.Add(added[refAdded:a.Ingested]...); err != nil {
			t.Fatal(err)
		}
		refAdded = a.Ingested
		coldFW, err := core.New(core.Config{Searcher: ref})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldFW.RunSocial(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := exported(a.Result), exported(cold); !bytes.Equal(got, want) {
			t.Fatalf("generation %d (Ingested %d, recomputed %v) diverged from a cold run over the posts it covers",
				a.Generation, a.Ingested, a.Recomputed)
		}
		if a.Recomputed {
			recomputed++
		} else {
			atOnce++
		}
	}
	t.Logf("%d posts in %d checked generations: %d recomputed, %d metadata-only", len(added), len(seen), recomputed, atOnce)
	if recomputed == 0 || atOnce == 0 {
		t.Fatalf("vacuous model run: %d recomputed and %d metadata-only generations", recomputed, atOnce)
	}
}
