// Scheduling tests: an isolated delta runs the moment it lands, a
// follow-up inside the debounce window waits for the trailing edge,
// MaxLag bounds a burst, and a failure streak keeps its backoff. The
// schedule itself is stepped directly; the monitor loops run on a fake
// clock, so every "prompt" publication carries the instant of its
// arrival and every "not yet" is a timer armed for an exact instant.
package monitor

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// scheduleDebounce is the Debounce of the schedule tests' monitors.
const scheduleDebounce = time.Second

// TestScheduleSteps drives the schedule alone, on a fake clock, through
// scripted arrivals and pass ends, checking after each step whether a
// pass starts at once and which timer it armed, and whether the armed
// timer fired during the clock advance before the step.
func TestScheduleSteps(t *testing.T) {
	const d = scheduleDebounce
	const ms = time.Millisecond
	type step struct {
		wait  time.Duration // clock advance before the step
		fires bool          // the armed timer fires during wait (else it must not)
		// op: "arrive", "ran" (a pass ended), "fail" (a pass failed),
		// "initfail" (the initial pass failed) or "" (only wait).
		op    string
		run   bool          // arrive: a pass starts at once
		armed time.Duration // the timer the step requested; 0 for none
	}
	for _, tc := range []struct {
		name   string
		maxLag time.Duration
		steps  []step
	}{
		{"leading edge", 10 * d, []step{
			{op: "arrive", run: true}, // the first work after startup
			{op: "ran"},
			{wait: d, op: "arrive", run: true}, // idle again a debounce after the pass
			{op: "ran"},
			{wait: d - 1, op: "arrive", armed: d}, // not yet idle: trailing debounce
		}},
		{"trailing debounce re-arms", 10 * d, []step{
			{op: "arrive", run: true},
			{op: "ran"},
			{wait: 100 * ms, op: "arrive", armed: d},
			{wait: 300 * ms, op: "arrive", armed: d}, // restarts the quiet period
			{wait: d - 1},
			{wait: 1, fires: true, op: "ran"},
			{op: "arrive", armed: d},
		}},
		{"MaxLag bounds a burst", 2500 * ms, []step{
			{op: "arrive", run: true},
			{op: "ran"},
			{op: "arrive", armed: d}, // the pass is due by 2.5 s from now
			{wait: 900 * ms, op: "arrive", armed: d},
			{wait: 900 * ms, op: "arrive", armed: 700 * ms},
			{wait: 500 * ms, op: "arrive", armed: 200 * ms},
			{wait: 200 * ms, fires: true, op: "ran"},
			{op: "arrive", armed: d}, // a new window, with a new bound
		}},
		{"retry backoff doubles up to 30 s", 10 * d, []step{
			{op: "arrive", run: true},
			{op: "fail", armed: d},
			{wait: d, fires: true, op: "fail", armed: 2 * d},
			{wait: 2 * d, fires: true, op: "fail", armed: 4 * d},
			{wait: 4 * d, fires: true, op: "fail", armed: 8 * d},
			{wait: 8 * d, fires: true, op: "fail", armed: 16 * d},
			{wait: 16 * d, fires: true, op: "fail", armed: 30 * time.Second},
			{wait: 30 * time.Second, fires: true, op: "fail", armed: 30 * time.Second},
			{wait: 30 * time.Second, fires: true, op: "ran"}, // recovery ends the streak
			{op: "arrive", armed: d},
			{wait: d, fires: true, op: "fail", armed: d}, // a new streak starts over
		}},
		{"arrivals during a failure streak join the retry", 10 * d, []step{
			{op: "arrive", run: true},
			{op: "fail", armed: d},
			{wait: 200 * ms, op: "arrive"},
			{wait: 700 * ms, op: "arrive"},
			{wait: 100 * ms, fires: true, op: "fail", armed: 2 * d},
			{wait: d, op: "arrive"},
			{wait: d, fires: true, op: "ran"},
		}},
		{"a failed initial pass retries", 10 * d, []step{
			{op: "initfail", armed: d},
			{op: "arrive"},
			{wait: d, fires: true, op: "ran"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			s := schedule{clock: clk, debounce: d, maxLag: tc.maxLag}
			for i, st := range tc.steps {
				clk.Advance(st.wait)
				fired := false
				select {
				case <-s.timer:
					fired = true
				default:
				}
				if fired != st.fires {
					t.Fatalf("step %d: timer fired = %v after %v, want %v", i, fired, st.wait, st.fires)
				}
				before := len(clk.armed)
				run := false
				switch st.op {
				case "arrive":
					run = s.arrive()
				case "ran":
					s.ran(false)
				case "fail":
					s.ran(true)
				case "initfail":
					s.fail()
				}
				var armed time.Duration
				if len(clk.armed) > before {
					armed = clk.armed[len(clk.armed)-1]
				}
				if run != st.run || armed != st.armed {
					t.Fatalf("step %d (%s at +%v): run %v, armed %v; want run %v, armed %v",
						i, st.op, clk.now.Sub(fakeStart), run, armed, st.run, st.armed)
				}
			}
		})
	}
}

// TestScheduleIsolatedIngestRunsAtOnce: the first ingest after the
// initial assessment reaches an idle monitor and publishes at once; a
// second ingest right after it lands inside the debounce window and
// waits for the trailing edge, one debounce later.
func TestScheduleIsolatedIngestRunsAtOnce(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	m, clk, first := fakeMonitor(t, store, store)

	if err := store.Add(deltaPost(1, "isolated #chiptuning stage1 file")); err != nil {
		t.Fatal(err)
	}
	cur := waitGen(t, m, first.Generation+1)
	if cur.Ingested != 1 || !cur.Recomputed || !cur.UpdatedAt.Equal(fakeStart) {
		t.Fatalf("isolated ingest published Ingested=%d Recomputed=%v at %v, want 1 recomputed at once",
			cur.Ingested, cur.Recomputed, cur.UpdatedAt.Sub(fakeStart))
	}

	if err := store.Add(deltaPost(2, "follow-up #chiptuning remap")); err != nil {
		t.Fatal(err)
	}
	deferred(t, m, clk, 1, cur.Generation, "a follow-up ingest inside the debounce window")
	clk.Advance(scheduleDebounce)
	if cur = waitGen(t, m, cur.Generation+1); cur.Ingested != 2 || !cur.UpdatedAt.Equal(fakeStart.Add(scheduleDebounce)) {
		t.Fatalf("trailing edge published Ingested=%d at %v, want 2 at %v",
			cur.Ingested, cur.UpdatedAt.Sub(fakeStart), scheduleDebounce)
	}
}

// TestScheduleTARAOpOnQuietFleet: a tenant mutation on a fleet that
// has been quiet since its initial pass is re-rated at once.
func TestScheduleTARAOpOnQuietFleet(t *testing.T) {
	reg := tara.NewRegistry()
	genTenantFleet(t, reg, 3)
	clk := newFakeClock()
	tm := runTARAMonitor(t, TARAConfig{Registry: reg, Debounce: scheduleDebounce, clock: clk})

	target, _ := reg.Get("t01")
	before := target.Assessment()
	if _, err := target.Mutate(func(a *tara.Analysis) (bool, error) {
		return a.SetThreatTable(a.Threats[0].ID, hotTable(t))
	}); err != nil {
		t.Fatal(err)
	}
	cur := waitTenant(t, tm, "t01", before.Generation+1)
	if cur.RatedThreats != 1 || !cur.UpdatedAt.Equal(fakeStart) || len(clk.waitArmed(t, 0)) != 0 {
		t.Fatalf("re-rate covered %d threats at +%v, want the 1 mutated at once, with no timer",
			cur.RatedThreats, cur.UpdatedAt.Sub(fakeStart))
	}
}

// TestScheduleTARANotifyDuringFailureStreak: once a pass has failed,
// the retry waits out its backoff — a mutation of another tenant in
// the meantime joins the retry instead of starting an early pass or
// re-arming the timer.
func TestScheduleTARANotifyDuringFailureStreak(t *testing.T) {
	reg := tara.NewRegistry()
	genTenantFleet(t, reg, 2)
	clk := newFakeClock()
	tm := runTARAMonitor(t, TARAConfig{Registry: reg, Debounce: scheduleDebounce, clock: clk})

	// Break t01: a damage scenario naming an unknown asset fails
	// validation, so each of its rating attempts fails and re-marks it
	// dirty.
	broken, _ := reg.Get("t01")
	if _, err := broken.Mutate(func(a *tara.Analysis) (bool, error) {
		a.Damages[0].AssetIDs = append(a.Damages[0].AssetIDs, "no-such-asset")
		a.Invalidate()
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	clk.waitArmed(t, 1)

	other, _ := reg.Get("t00")
	gen := other.Assessment().Generation
	clk.took(t, func() {
		if _, err := other.Mutate(func(a *tara.Analysis) (bool, error) {
			return a.SetThreatTable(a.Threats[0].ID, hotTable(t))
		}); err != nil {
			t.Fatal(err)
		}
	})
	clk.Advance(scheduleDebounce)
	if cur := waitTenant(t, tm, "t00", gen+1); !cur.UpdatedAt.Equal(fakeStart.Add(scheduleDebounce)) {
		t.Fatalf("t00 re-rated at +%v, want by the retry at +%v", cur.UpdatedAt.Sub(fakeStart), scheduleDebounce)
	}
	if got, want := clk.waitArmed(t, 2), []time.Duration{scheduleDebounce, 2 * scheduleDebounce}; !slices.Equal(got, want) {
		t.Fatalf("timers %v, want the retry backoff %v", got, want)
	}
}

// waitTenant waits for the named tenant's assessment of at least
// generation gen.
func waitTenant(t *testing.T, tm *TARAMonitor, name string, gen uint64) *tara.TenantAssessment {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := tm.WaitForTenant(ctx, name, gen)
	if err != nil {
		t.Fatalf("waiting for tenant %s generation %d: %v", name, gen, err)
	}
	return cur
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
// the debounce, so the failed flushes arm the exponential backoff D,
// 2D, 4D, … rather than one debounce or MaxLag each, and the flush
// that recovers covers every post the outage held back.
func TestMonitorRetriesBackOffUnderSteadyIngest(t *testing.T) {
	store, err := social.DefaultStore(21)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySearcher{inner: store}
	m, clk, first := fakeMonitor(t, store, flaky)

	// Trip the platform. The first post fails on the leading edge; each
	// later one joins the pending retry, which fails again.
	flaky.fail.Store(true)
	const attempts = 5
	var want []time.Duration
	for i := 0; i < attempts; i++ {
		clk.took(t, func() {
			if err := store.Add(deltaPost(100+i, "outage-time #chiptuning remap")); err != nil {
				t.Fatal(err)
			}
		})
		if i > 0 {
			clk.Advance(want[i-1])
		}
		want = append(want, scheduleDebounce<<i)
		if got := clk.waitArmed(t, i+1); !slices.Equal(got, want) {
			t.Fatalf("timers %v after %d failed flushes, want %v", got, i+1, want)
		}
	}

	flaky.fail.Store(false)
	clk.Advance(want[attempts-1])
	cur := waitGen(t, m, first.Generation+1)
	if at := fakeStart.Add(31 * scheduleDebounce); !cur.Recomputed || cur.Ingested != attempts || !cur.UpdatedAt.Equal(at) {
		t.Fatalf("recovery published Recomputed=%v Ingested=%d at +%v, want all %d posts at +%v",
			cur.Recomputed, cur.Ingested, cur.UpdatedAt.Sub(fakeStart), attempts, at.Sub(fakeStart))
	}
}

// fillerPost matches no monitored query: it drops no cached fill, so
// the delta it forms owes no work.
func fillerPost(i int) *social.Post {
	return deltaPost(i, "completely #offtopic chatter")
}

// fakeMonitor runs a monitor over store on a fake clock with Debounce
// scheduleDebounce, querying the platform through searcher, and returns
// it with its clock and its initial assessment.
func fakeMonitor(t *testing.T, store *social.Store, searcher social.Searcher) (*Monitor, *fakeClock, *Assessment) {
	t.Helper()
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m, _ := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Searcher:  searcher,
		Input:     core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}},
		Debounce:  scheduleDebounce,
		clock:     clk,
	})
	return m, clk, waitGen(t, m, 1)
}

// deferred asserts that the monitor's n-th timer was the trailing
// debounce and that nothing was published past gen: the batch that
// armed it waits for the timer.
func deferred(t *testing.T, m *Monitor, clk *fakeClock, n int, gen uint64, what string) {
	t.Helper()
	if armed := clk.waitArmed(t, n); len(armed) != n || armed[n-1] != scheduleDebounce {
		t.Fatalf("%s armed timers %v, want %d, the last the %v debounce", what, armed, n, scheduleDebounce)
	}
	if cur := m.Assessment(); cur.Generation != gen {
		t.Fatalf("%s published generation %d", what, cur.Generation)
	}
}

// TestScheduleNoWorkFillerPublishesAtOnce: a delta that drops no cached
// fill publishes at once, whatever the debounce — the previous result,
// fresh metadata, and not one platform query or timer.
func TestScheduleNoWorkFillerPublishesAtOnce(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapSearcher{inner: store}
	m, clk, first := fakeMonitor(t, store, tap)
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
	if armed := clk.waitArmed(t, 0); len(armed) != 0 {
		t.Fatalf("no-work publications armed timers %v", armed)
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
	m, clk, first := fakeMonitor(t, store, store)
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
	cur := waitGen(t, m, filler.Generation+1)
	if !cur.Recomputed || cur.Ingested != 2 || len(clk.waitArmed(t, 0)) != 0 {
		t.Fatalf("on-topic batch published Recomputed=%v Ingested=%d, want a recompute covering both, at once",
			cur.Recomputed, cur.Ingested)
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
	m, clk, first := fakeMonitor(t, store, store)
	if err := store.Add(deltaPost(1, "isolated #chiptuning stage1 file")); err != nil {
		t.Fatal(err)
	}
	lead := waitGen(t, m, first.Generation+1)
	if !lead.Recomputed {
		t.Fatal("the leading-edge batch did not re-run the workflow")
	}
	// Inside the debounce window: these wait for the trailing edge, and
	// the filler restarts it.
	clk.took(t, func() {
		if err := store.Add(deltaPost(2, "follow-up #chiptuning remap")); err != nil {
			t.Fatal(err)
		}
	})
	if err := store.Add(fillerPost(3)); err != nil {
		t.Fatal(err)
	}
	deferred(t, m, clk, 2, lead.Generation, "a filler batch behind a pending on-topic batch")
	clk.Advance(scheduleDebounce)
	if cur := waitGen(t, m, lead.Generation+1); !cur.Recomputed || cur.Ingested != 3 {
		t.Fatalf("trailing edge published Recomputed=%v Ingested=%d, want one recompute covering all 3 posts",
			cur.Recomputed, cur.Ingested)
	}
}

// TestScheduleNoWorkDuringRetryStreak: after a failed flush the dropped
// fills are still owed, so a filler batch cannot republish the stale
// result — it waits for the retry, and joins it.
func TestScheduleNoWorkDuringRetryStreak(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySearcher{inner: store}
	m, clk, first := fakeMonitor(t, store, flaky)
	flaky.fail.Store(true)
	if err := store.Add(deltaPost(1, "outage-time #chiptuning remap")); err != nil {
		t.Fatal(err)
	}
	clk.waitArmed(t, 1)
	clk.took(t, func() {
		if err := store.Add(fillerPost(2)); err != nil {
			t.Fatal(err)
		}
	})
	clk.Advance(scheduleDebounce)
	if got, want := clk.waitArmed(t, 2), []time.Duration{scheduleDebounce, 2 * scheduleDebounce}; !slices.Equal(got, want) {
		t.Fatalf("timers %v, want the retry backoff %v", got, want)
	}
	if cur := m.Assessment(); cur.Generation != first.Generation {
		t.Fatalf("a filler batch during the retry backoff published generation %d", cur.Generation)
	}
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
		if !reflect.DeepEqual(a.Result, cold) {
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
