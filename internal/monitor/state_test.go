package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// tapSearcher counts platform queries so warm-restart tests can prove
// an assessment was served without running the workflow.
type tapSearcher struct {
	inner social.Searcher
	calls atomic.Int64
}

func (c *tapSearcher) Search(ctx context.Context, q social.Query) (*social.Page, error) {
	c.calls.Add(1)
	return c.inner.Search(ctx, q)
}

// sameMemos reports whether two memo exports hold the same memos, each
// sharing its features and its graph with the other. A workflow run
// tokenizes posts only into a memo it rebuilds, with new features and a
// new graph (or into a graph it adds to a memo that had none), so a run
// that leaves the export the same tokenized no post.
func sameMemos(a, b []core.MemoState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Sig != y.Sig || x.Graph != y.Graph || len(x.Features) != len(y.Features) ||
			len(x.Features) > 0 && &x.Features[0] != &y.Features[0] {
			return false
		}
	}
	return true
}

// openSeededDurableStore builds a durable store in dir seeded with the
// reference corpus (only on first open — a reopened dir recovers
// instead).
func openSeededDurableStore(t *testing.T, dir string) *social.Store {
	t.Helper()
	store, err := social.OpenStoreDir(dir, social.DurableOptions{Shards: 4, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		posts, err := social.Generate(social.DefaultCorpusSpec(42))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(posts...); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// runMonitor starts a monitor and returns it with an idempotent stop.
func runMonitor(t *testing.T, cfg Config) (*Monitor, func()) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("monitor did not stop after cancellation")
		}
	}
	t.Cleanup(stop)
	return m, stop
}

// waitGen waits for an assessment generation with a test timeout.
func waitGen(t *testing.T, m *Monitor, gen uint64) *Assessment {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cur, err := m.WaitFor(ctx, gen)
	if err != nil {
		t.Fatalf("waiting for generation %d: %v", gen, err)
	}
	return cur
}

// TestMonitorWarmRestart is the subsystem acceptance test: a monitor
// over a durable store persists its state; a restarted monitor serves
// its first assessment — the saving life's last result, re-derived from
// the restored cache without a single platform query or tokenized post
// — resumes the generation sequence, then catches up with an
// incremental delta run whose output is byte-identical to a cold run
// over the merged corpus.
func TestMonitorWarmRestart(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}

	// First life: cold run, one incremental delta, state persisted.
	store1 := openSeededDurableStore(t, filepath.Join(dir, "store"))
	fw1, err := core.New(core.Config{Searcher: store1})
	if err != nil {
		t.Fatal(err)
	}
	m1, stop1 := runMonitor(t, Config{
		Framework: fw1,
		Store:     store1,
		Input:     in,
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	})
	first := waitGen(t, m1, 1)
	if !first.FullRun || first.Restored {
		t.Fatalf("first life should start cold: %+v", first)
	}
	const posts = 10
	for i := 0; i < posts; i++ {
		if err := store1.Add(deltaPost(i, "hot new #chiptuning stage1 file")); err != nil {
			t.Fatal(err)
		}
	}
	// The first post may flush on its own (the leading edge) and the
	// rest coalesce into a later generation: wait for the one that
	// covers every post, which is the last state saved.
	persisted := waitGen(t, m1, first.Generation+1)
	for persisted.Ingested < posts {
		persisted = waitGen(t, m1, persisted.Generation+1)
	}
	stop1()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the store recovers, posts arrive before the monitor
	// is back (the crash-gap delta), and the monitor restarts warm.
	store2 := openSeededDurableStore(t, filepath.Join(dir, "store"))
	if store2.Len() != store1.Len() {
		t.Fatalf("store recovered %d posts, want %d", store2.Len(), store1.Len())
	}
	var gap []*social.Post
	for i := 100; i < 110; i++ {
		gap = append(gap, deltaPost(i, "another #chiptuning remap drop"))
	}
	if err := store2.Add(gap...); err != nil {
		t.Fatal(err)
	}
	tap := &tapSearcher{inner: store2}
	fw2, err := core.New(core.Config{Searcher: tap})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Config{
		Framework: fw2,
		Store:     store2,
		Searcher:  tap,
		Input:     in,
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	}

	// Probe the restore step synchronously first: the assessment must be
	// up before a single platform query runs.
	probe, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	st, delta := probe.tryRestore()
	if st == nil {
		t.Fatal("persisted state not restored")
	}
	if len(delta) != len(gap) {
		t.Fatalf("restart delta has %d posts, want the %d-post crash gap", len(delta), len(gap))
	}
	imported := probe.rc.ExportMemos()
	if err := probe.initialAssessment(context.Background(), st, len(delta)); err != nil {
		t.Fatal(err)
	}
	restored := probe.Assessment()
	if restored == nil || !restored.Restored {
		t.Fatalf("first post-restart assessment not served from persisted state: %+v", restored)
	}
	if restored.Generation != persisted.Generation || !restored.UpdatedAt.Equal(persisted.UpdatedAt) {
		t.Fatalf("restored metadata diverged: gen %d at %v, want gen %d at %v",
			restored.Generation, restored.UpdatedAt, persisted.Generation, persisted.UpdatedAt)
	}
	if got := tap.calls.Load(); got != 0 {
		t.Fatalf("restored assessment cost %d platform queries, want 0", got)
	}
	// The restored result is the one the first life published last,
	// re-derived from the restored cache without tokenizing a post.
	if !reflect.DeepEqual(restored.Result, persisted.Result) {
		t.Fatal("restored result differs from the one the first life published last")
	}
	if !sameMemos(probe.rc.ExportMemos(), imported) {
		t.Fatal("re-deriving the restored result rebuilt a slice memo: it tokenized posts")
	}
	// It renders identically to what the first life served.
	a, _ := json.Marshal(renderAssessment(persisted).Index)
	b, _ := json.Marshal(renderAssessment(restored).Index)
	if !bytes.Equal(a, b) {
		t.Fatal("restored index rendering differs from the persisted one")
	}

	// Now the full Run path: a fresh monitor restores, catches up on the
	// crash-gap delta as one incremental run (the restored fills keep
	// untouched queries off the platform), and converges to a cold run.
	tap.calls.Store(0)
	m2, stop2 := runMonitor(t, cfg2)
	caught := waitGen(t, m2, persisted.Generation+1)
	if caught.FullRun || caught.Restored {
		t.Fatalf("catch-up ran cold: %+v", caught)
	}
	warmQueries := tap.calls.Load()

	// Cold reference over the merged corpus: byte-identical rendering,
	// and strictly more platform queries than the warm catch-up.
	coldTap := &tapSearcher{inner: store2}
	coldFW, err := core.New(core.Config{Searcher: coldTap})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldFW.RunSocial(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(caught.Result, cold) {
		t.Fatal("warm catch-up diverged from a cold run over the merged corpus")
	}
	coldView := *caught
	coldView.Result = cold
	ar, _ := json.Marshal(renderAssessment(caught))
	br, _ := json.Marshal(renderAssessment(&coldView))
	if !bytes.Equal(ar, br) {
		t.Fatalf("wire renderings differ:\n%s\n%s", ar, br)
	}
	if coldQueries := coldTap.calls.Load(); warmQueries >= coldQueries {
		t.Errorf("warm catch-up used %d queries, cold run %d — the restored cache saved nothing", warmQueries, coldQueries)
	}
	stop2()
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorStateInputMismatch: persisted state for a different
// monitored input is discarded — the restarted monitor runs cold
// rather than serving an answer to the wrong question.
func TestMonitorStateInputMismatch(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	store := openSeededDurableStore(t, filepath.Join(dir, "store"))
	defer store.Close()
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m1, stop1 := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Input:     core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}},
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	})
	waitGen(t, m1, 1)
	stop1()
	if st, err := NewFileStateStore(statePath).Load(); err != nil || st == nil {
		t.Fatalf("no persisted state to mismatch against (err %v)", err)
	}

	m2, _ := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Input:     core.SocialInput{Application: "excavator", Threats: []*tara.ThreatScenario{ecmThreat()}},
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	})
	first := waitGen(t, m2, 1)
	if first.Restored || !first.FullRun {
		t.Fatalf("mismatched input restored stale state: %+v", first)
	}
}

// TestMonitorStateConfigMismatch: persisted state computed under a
// different analysis configuration — here the attraction weights — is
// discarded too. Its scores, and the per-post features it carries,
// answer the monitoring question with another model; the restarted
// monitor runs cold.
func TestMonitorStateConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	store := openSeededDurableStore(t, filepath.Join(dir, "store"))
	defer store.Close()
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m1, stop1 := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Input:     in,
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	})
	waitGen(t, m1, 1)
	stop1()
	if st, err := NewFileStateStore(statePath).Load(); err != nil || st == nil {
		t.Fatalf("no persisted state to mismatch against (err %v)", err)
	}

	weights := sai.DefaultWeights()
	weights.SentimentGate, weights.Popularity = false, 1
	reweighted, err := core.New(core.Config{Searcher: store, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := runMonitor(t, Config{
		Framework: reweighted,
		Store:     store,
		Input:     in,
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	})
	first := waitGen(t, m2, 1)
	if first.Restored || !first.FullRun {
		t.Fatalf("state saved under other weights restored as current: %+v", first)
	}
	cold, err := reweighted.RunSocial(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Result, cold) {
		t.Fatal("assessment under the new weights differs from a cold run under them")
	}
}

// TestAssessmentETag: GET /v1/assessment carries an ETag keyed on the
// assessment generation, and If-None-Match answers 304 without a body
// until the generation moves.
func TestAssessmentETag(t *testing.T) {
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	m := startMonitor(t, store, in)
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	get := func(inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/assessment", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := get("")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET: %d with %d bytes", resp.StatusCode, len(body))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on assessment response")
	}
	if resp, body := get(etag); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("matching If-None-Match: %d with %d bytes, want 304 empty", resp.StatusCode, len(body))
	}
	// Weak validators and lists match too; a stale tag does not.
	if resp, _ := get("W/" + etag + `, "other"`); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak/list If-None-Match: %d, want 304", resp.StatusCode)
	}
	if resp, _ := get(`"g0.0"`); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: %d, want 200", resp.StatusCode)
	}
	if resp, _ := get("*"); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("wildcard If-None-Match: %d, want 304", resp.StatusCode)
	}

	// A new generation invalidates the cached copy.
	gen := m.Assessment().Generation
	if err := store.Add(deltaPost(900, "fresh #chiptuning chatter")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.WaitFor(ctx, gen+1); err != nil {
		t.Fatal(err)
	}
	resp, body = get(etag)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("after generation change: %d with %d bytes, want fresh 200", resp.StatusCode, len(body))
	}
	if newTag := resp.Header.Get("ETag"); newTag == etag {
		t.Fatal("ETag did not change with the generation")
	}
}

// TestMonitorWarmRestartAfterNoWorkStream: a stream of deltas that owe
// no work publishes generations that never save the state on the way,
// so the monitor saves them when it stops. The store then compacts and
// truncates its WAL (small segments give truncation targets), and the
// restarted monitor must still restore — at the last generation it
// served, without a platform query.
func TestMonitorWarmRestartAfterNoWorkStream(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	open := func() *social.Store {
		store, err := social.OpenStoreDir(filepath.Join(dir, "store"), social.DurableOptions{
			Shards: 4, CompactEvery: -1, SegmentBytes: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	store1 := open()
	posts, err := social.Generate(social.DefaultCorpusSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(posts); i += 10 {
		if err := store1.Add(posts[i]); err != nil {
			t.Fatal(err)
		}
	}
	fw1, err := core.New(core.Config{Searcher: store1})
	if err != nil {
		t.Fatal(err)
	}
	m1, stop1 := runMonitor(t, Config{
		Framework: fw1,
		Store:     store1,
		Input:     in,
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	})
	served := waitGen(t, m1, 1)
	const batches = 40
	for i := 0; i < batches; i++ {
		if err := store1.Add(fillerPost(i)); err != nil {
			t.Fatal(err)
		}
	}
	for served.Ingested < batches {
		served = waitGen(t, m1, served.Generation+1)
	}
	if served.Generation < 2 || served.Recomputed {
		t.Fatalf("filler stream published %+v, want metadata-only generations", served)
	}
	stop1()
	if err := store1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := open()
	defer store2.Close()
	tap := &tapSearcher{inner: store2}
	fw2, err := core.New(core.Config{Searcher: tap})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Framework: fw2,
		Store:     store2,
		Searcher:  tap,
		Input:     in,
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	}
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := restoreStep(probe); err != nil || !ok {
		t.Fatalf("state saved after a no-work stream did not restore (cold fallback, err %v)", err)
	}
	restored := probe.Assessment()
	if !restored.Restored || restored.Generation != served.Generation {
		t.Fatalf("restored generation %d (restored=%v), want the last served generation %d",
			restored.Generation, restored.Restored, served.Generation)
	}

	// The full Run path: restored at the served generation, and the
	// catch-up (at most the last filler batch) costs no query either.
	m2, _ := runMonitor(t, cfg)
	first := waitGen(t, m2, served.Generation)
	if first.FullRun {
		t.Fatalf("restarted monitor ran cold: %+v", first)
	}
	if n := tap.calls.Load(); n != 0 {
		t.Fatalf("restart after a no-work stream cost %d platform queries, want 0", n)
	}
}

// gateClock is the wall clock behind a gate: while armed, each Now
// call parks until the test releases it — a way to hold Run at its
// next clock read.
type gateClock struct {
	realClock
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateClock) Now() time.Time {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return time.Now()
}

// TestMonitorWarmRestartStopWithBatchQueued: Add queues a batch on the
// changefeed before the store's durable cursor moves past it, so when
// Run stops with an on-topic batch still queued, the store's cursor can
// already cover it. The state saved at stop must not: a restart that
// finds no work owed must serve a result exact for the whole store.
// Run's select picks between the stop and the queued batch at random,
// so the scenario runs several times.
func TestMonitorWarmRestartStopWithBatchQueued(t *testing.T) {
	store := openSmallDurableStore(t, t.TempDir())
	defer store.Close()
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	add := func(p *social.Post) {
		t.Helper()
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 4; round++ {
		statePath := filepath.Join(t.TempDir(), "monitor.state")
		gate := &gateClock{entered: make(chan struct{}), release: make(chan struct{})}
		cfg := Config{
			Framework: fw,
			Store:     store,
			Input:     in,
			Debounce:  time.Hour,
			MaxLag:    time.Hour,
			State:     NewFileStateStore(statePath),
			clock:     gate,
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- m.Run(ctx) }()
		waitGen(t, m, 1)

		base := 100 * (round + 1)
		gate.armed.Store(true)
		// Run reads the clock twice per filler batch: to stamp the
		// window it opens, then to stamp the publication.
		add(fillerPost(base))
		<-gate.entered // Run took the first filler alone and holds at its window stamp
		add(fillerPost(base + 1))
		for i := 0; i < 2; i++ { // publish the first filler, take the second
			gate.release <- struct{}{}
			<-gate.entered
		}
		// Run holds after taking the second filler, so the on-topic batch
		// stays pending on the feed while the store's cursor covers it.
		add(deltaPost(base+2, "queued #chiptuning stage1 remap"))
		cancel()
		gate.armed.Store(false)
		gate.release <- struct{}{}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("monitor did not stop after cancellation")
		}

		cfg.clock = nil
		probe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		delta, ok, err := restoreStep(probe)
		if err != nil || !ok {
			t.Fatalf("round %d: saved state did not restore (err %v)", round, err)
		}
		probe.classify(&window{}, social.ProfilePosts(delta))
		if probe.owed {
			continue // the restart re-runs the workflow over the replayed batch
		}
		cold, err := fw.RunSocial(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(probe.Assessment().Result, cold) {
			t.Fatalf("round %d: restart owes no work, yet its restored result misses the batch queued at stop (catch-up delta %d posts)",
				round, len(delta))
		}
	}
}

// TestMonitorWarmRestartDirtyListsLearnedTags pins the published dirty
// set to the assessment's keyword database: a post carrying only a
// learned tag marks that tag's topic dirty, both in the monitor that
// learned it and in one restarted warm from its saved state.
func TestMonitorWarmRestartDirtyListsLearnedTags(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	open := func() *social.Store {
		store, err := social.OpenStoreDir(filepath.Join(dir, "store"), social.DurableOptions{
			Shards: 4, CompactEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	start := func(store *social.Store) (*Monitor, func()) {
		fw, err := core.New(core.Config{Searcher: store})
		if err != nil {
			t.Fatal(err)
		}
		return runMonitor(t, Config{
			Framework: fw,
			Store:     store,
			Input:     in,
			Debounce:  20 * time.Millisecond,
			State:     NewFileStateStore(statePath),
		})
	}
	// ingest adds posts and waits for the generation that includes them.
	ingest := func(m *Monitor, posts ...*social.Post) *Assessment {
		t.Helper()
		cur := m.Assessment()
		want := cur.Ingested + len(posts)
		if err := m.cfg.Store.Add(posts...); err != nil {
			t.Fatal(err)
		}
		for cur.Ingested < want {
			cur = waitGen(t, m, cur.Generation+1)
		}
		return cur
	}
	const tag = "zzflashkit"
	tagOnly := func(i int) *social.Post {
		return deltaPost(i, fmt.Sprintf("fresh #%s bundle in stock", tag))
	}

	store1 := open()
	posts, err := social.Generate(social.DefaultCorpusSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(posts); i += 10 {
		if err := store1.Add(posts[i]); err != nil {
			t.Fatal(err)
		}
	}
	m1, stop1 := start(store1)
	waitGen(t, m1, 1)
	var taught []*social.Post
	for i := 300; i < 330; i++ {
		taught = append(taught, deltaPost(i, fmt.Sprintf("flashed #chiptuning #excavatortuning #speedlimiteroff with #%s gains", tag)))
	}
	topic := ""
	for g, tags := range ingest(m1, taught...).Result.Learned {
		if slices.Contains(tags, tag) {
			topic = g
		}
	}
	if topic == "" {
		t.Fatalf("#%s not learned after %d posts carried it", tag, len(taught))
	}

	if cur := ingest(m1, tagOnly(500)); !cur.Recomputed || !slices.Contains(cur.Dirty.Topics, topic) {
		t.Errorf("learned-tag post published Recomputed=%v Dirty=%+v, want topic %q dirty",
			cur.Recomputed, cur.Dirty, topic)
	}
	stop1()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := open()
	defer store2.Close()
	m2, stop2 := start(store2)
	defer stop2()
	if restored := waitGen(t, m2, 1); !restored.Restored {
		t.Fatalf("second life ran cold: %+v", restored)
	}
	if cur := ingest(m2, tagOnly(501)); !slices.Contains(cur.Dirty.Topics, topic) {
		t.Errorf("after a warm restart the learned-tag post published Dirty=%+v, want topic %q dirty",
			cur.Dirty, topic)
	}
}
