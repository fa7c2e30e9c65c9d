package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

func ecmThreat() *tara.ThreatScenario {
	return &tara.ThreatScenario{
		ID: "TS-ECM-01", Name: "ECM reprogramming",
		DamageIDs: []string{"DS-01"},
		Property:  tara.PropertyIntegrity,
		STRIDE:    tara.Tampering,
		Profiles:  []tara.AttackerProfile{tara.ProfileInsider},
		Vector:    tara.VectorPhysical,
		Keywords:  []string{"chiptuning", "ecutune", "remap", "stage1"},
	}
}

func deltaPost(i int, text string) *social.Post {
	return &social.Post{
		ID:        fmt.Sprintf("delta-%03d", i),
		Author:    fmt.Sprintf("newuser%d", i),
		Text:      text,
		CreatedAt: time.Date(2023, 3, 1, 12, i%60, i/60, 0, time.UTC),
		Region:    social.RegionEurope,
		Metrics:   social.Metrics{Views: 150 + i, Likes: 12},
	}
}

// startMonitor builds a monitor over a seeded store and runs it until
// the test ends, returning the monitor and its first assessment.
func startMonitor(t *testing.T, store *social.Store, in core.SocialInput) *Monitor {
	t.Helper()
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Framework: fw,
		Store:     store,
		Input:     in,
		Debounce:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("monitor did not stop after cancellation")
		}
	})
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if _, err := m.WaitFor(waitCtx, 1); err != nil {
		t.Fatalf("initial assessment: %v", err)
	}
	return m
}

// TestMonitorIncrementalMatchesColdRun is the subsystem acceptance
// test: after ingesting a delta through the changefeed, the published
// assessment is byte-identical to a cold full RunSocial over the merged
// corpus — both structurally (DeepEqual) and through the JSON wire
// rendering.
func TestMonitorIncrementalMatchesColdRun(t *testing.T) {
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	m := startMonitor(t, store, in)
	first := m.Assessment()
	if !first.FullRun || first.Generation != 1 {
		t.Fatalf("first assessment metadata: %+v", first)
	}

	var delta []*social.Post
	for i := 0; i < 40; i++ {
		text := "hot new #chiptuning stage1 file"
		if i%4 == 1 {
			text = "#dpfdelete pipe fitted to the excavator"
		}
		delta = append(delta, deltaPost(i, text))
	}
	if err := store.Add(delta...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := m.WaitFor(ctx, first.Generation+1)
	if err != nil {
		t.Fatal(err)
	}
	if cur.FullRun || !cur.Recomputed {
		t.Errorf("incremental assessment metadata: FullRun=%v Recomputed=%v", cur.FullRun, cur.Recomputed)
	}
	if len(cur.Dirty.Topics) == 0 || len(cur.Dirty.Threats) == 0 {
		t.Errorf("dirty summary empty: %+v", cur.Dirty)
	}
	if cur.Ingested != len(delta) {
		t.Errorf("ingested = %d, want %d", cur.Ingested, len(delta))
	}

	// Cold reference: a fresh framework over the merged corpus.
	coldFW, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldFW.RunSocial(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cur.Result, cold) {
		t.Fatalf("incremental assessment diverged from cold run\nincremental: %+v\ncold: %+v",
			cur.Result.Index.Entries, cold.Index.Entries)
	}
	// Byte-level equivalence through the wire rendering, normalizing
	// only the freshness metadata the cold run does not carry.
	coldView := *cur
	coldView.Result = cold
	a, err := json.Marshal(renderAssessment(cur))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(renderAssessment(&coldView))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("wire renderings differ:\n%s\n%s", a, b)
	}
	// And the refresh must not be vacuous.
	if reflect.DeepEqual(first.Result.Index, cur.Result.Index) {
		t.Error("delta did not move the index; equivalence test is vacuous")
	}
}

// TestMonitorShardedStoreMatchesColdRun drives the monitor over a
// lock-striped store with concurrent writers targeting distinct time
// buckets (= distinct stripes): the cross-shard changefeed
// must feed every ingested post to the scheduler exactly once, so the
// incremental assessment still converges to a cold run over the merged
// corpus.
func TestMonitorShardedStoreMatchesColdRun(t *testing.T) {
	store, err := social.DefaultStoreShards(42, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	m := startMonitor(t, store, in)
	first := m.Assessment()

	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := &social.Post{
					ID:     fmt.Sprintf("shard-delta-%d-%02d", w, i),
					Author: fmt.Sprintf("writer%d", w),
					Text:   "hot new #chiptuning stage1 file",
					// One day bucket per writer keeps concurrent Adds on
					// distinct stripes of the 4-shard store.
					CreatedAt: time.Date(2023, 3, 10+w, 12, i, 0, 0, time.UTC),
					Region:    social.RegionEurope,
					Metrics:   social.Metrics{Views: 200 + i, Likes: 9},
				}
				if err := store.Add(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := m.WaitFor(ctx, first.Generation+1)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Ingested < writers*perWriter {
		if cur, err = m.WaitFor(ctx, cur.Generation+1); err != nil {
			t.Fatalf("monitor never observed the full delta: %v", err)
		}
	}

	coldFW, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldFW.RunSocial(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cur.Result, cold) {
		t.Fatalf("sharded incremental assessment diverged from cold run\nincremental: %+v\ncold: %+v",
			cur.Result.Index.Entries, cold.Index.Entries)
	}
	if reflect.DeepEqual(first.Result.Index, cur.Result.Index) {
		t.Error("delta did not move the index; sharded equivalence test is vacuous")
	}
}

// TestMonitorMetadataOnlyRefresh: a delta matching no monitored query
// publishes a new generation without recomputing, reusing the result.
func TestMonitorMetadataOnlyRefresh(t *testing.T) {
	store, err := social.DefaultStore(7)
	if err != nil {
		t.Fatal(err)
	}
	m := startMonitor(t, store, core.SocialInput{})
	first := m.Assessment()
	if err := store.Add(deltaPost(900, "completely #offtopic chatter")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := m.WaitFor(ctx, first.Generation+1)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Recomputed {
		t.Error("irrelevant delta triggered a recompute")
	}
	if cur.Result != first.Result {
		t.Error("metadata-only refresh replaced the result")
	}
	if cur.CorpusSize != first.CorpusSize+1 {
		t.Errorf("corpus size = %d, want %d", cur.CorpusSize, first.CorpusSize+1)
	}
}

// TestMonitorDebounceCoalesces: a burst of single-post Adds lands in
// one re-assessment generation rather than one per post.
func TestMonitorDebounceCoalesces(t *testing.T) {
	store, err := social.DefaultStore(11)
	if err != nil {
		t.Fatal(err)
	}
	m := startMonitor(t, store, core.SocialInput{})
	first := m.Assessment()
	const burst = 12
	for i := 0; i < burst; i++ {
		if err := store.Add(deltaPost(i, "#gpsblocker sleeve works")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := m.WaitFor(ctx, first.Generation+1)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Ingested != burst {
		// The burst may split across at most a couple of flushes under
		// scheduler jitter, but it must not take one flush per post.
		final, err := m.WaitFor(ctx, cur.Generation+1)
		if err == nil {
			cur = final
		}
	}
	if cur.Generation > first.Generation+3 {
		t.Errorf("burst of %d posts took %d generations", burst, cur.Generation-first.Generation)
	}
}

// flakySearcher fails every Search while tripped.
type flakySearcher struct {
	inner social.Searcher
	fail  atomic.Bool
}

func (f *flakySearcher) Search(ctx context.Context, q social.Query) (*social.Page, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("injected platform outage")
	}
	return f.inner.Search(ctx, q)
}

// TestMonitorRetriesAfterFailedFlush: a flush that fails after its
// invalidations landed must not let a later no-op delta republish the
// stale result; the monitor retries until the workflow succeeds and
// converges to the cold run.
func TestMonitorRetriesAfterFailedFlush(t *testing.T) {
	store, err := social.DefaultStore(21)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySearcher{inner: store}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{}
	m, err := New(Config{
		Framework: fw,
		Store:     store,
		Searcher:  flaky,
		Input:     in,
		Debounce:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	first, err := m.WaitFor(waitCtx, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Trip the platform, ingest a topical post: the flush invalidates
	// and then fails.
	flaky.fail.Store(true)
	if err := store.Add(deltaPost(700, "outage-time #chiptuning remap")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.LastError() == nil {
		if time.Now().After(deadline) {
			t.Fatal("flush failure never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heal the platform; the retry loop must converge without another
	// delta, and the published result must include the outage-time post
	// (no stale republish).
	flaky.fail.Store(false)
	cur, err := m.WaitFor(waitCtx, first.Generation+1)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Recomputed {
		t.Error("retry published without recomputing")
	}
	cold, err := fw.RunSocial(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cur.Result.Index, cold.Index) {
		t.Error("post-retry result diverged from cold run (stale republish?)")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("monitor did not stop")
	}
}

// TestAPIEndpoints drives ingest → assessment → health over HTTP.
func TestAPIEndpoints(t *testing.T) {
	store, err := social.DefaultStore(3)
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	m := startMonitor(t, store, in)
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	// Health reports the corpus and generation.
	var health healthResponse
	getJSON(t, srv.URL+"/v1/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Generation == 0 || health.Posts == 0 {
		t.Errorf("health = %+v", health)
	}

	// Ingest an array of posts.
	posts := []*social.Post{
		deltaPost(1, "api #chiptuning ingest"),
		deltaPost(2, "api #dpfdelete ingest"),
	}
	body, _ := json.Marshal(posts)
	resp, err := http.Post(srv.URL+"/v1/posts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing ingestResponse
	decodeBody(t, resp, http.StatusAccepted, &ing)
	if ing.Added != 2 {
		t.Errorf("ingest added = %d, want 2", ing.Added)
	}

	// A single object body works too.
	one, _ := json.Marshal(deltaPost(3, "single #chiptuning post"))
	resp, err = http.Post(srv.URL+"/v1/posts", "application/json", bytes.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusAccepted, &ing)
	if ing.Added != 1 {
		t.Errorf("single ingest added = %d, want 1", ing.Added)
	}

	// Invalid post → 400 with an error payload.
	bad, _ := json.Marshal(&social.Post{ID: "bad", Text: ""})
	resp, err = http.Post(srv.URL+"/v1/posts", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid post status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The assessment eventually reflects all three ingested posts. The
	// first batch may reach an idle monitor and publish on its own
	// (leading edge), so wait for the generation that covers them all.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := m.WaitFor(ctx, 2)
	for err == nil && cur.Ingested < 3 {
		cur, err = m.WaitFor(ctx, cur.Generation+1)
	}
	if err != nil {
		t.Fatal(err)
	}
	var got assessmentResponse
	getJSON(t, srv.URL+"/v1/assessment", http.StatusOK, &got)
	if got.Generation < 2 || len(got.Index) == 0 || len(got.Tunings) != 1 {
		t.Errorf("assessment = generation %d, %d index entries, %d tunings",
			got.Generation, len(got.Index), len(got.Tunings))
	}
	if got.Tunings[0].ThreatID != "TS-ECM-01" || len(got.Tunings[0].Ratings) != 4 {
		t.Errorf("tuning summary = %+v", got.Tunings[0])
	}
	if got.CorpusSize != store.Len() {
		t.Errorf("assessment corpus = %d, store = %d", got.CorpusSize, store.Len())
	}
}

// TestAPINotReady: before the first run completes, the assessment
// endpoint reports 503.
func TestAPINotReady(t *testing.T) {
	store, err := social.DefaultStore(9)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Framework: fw, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/assessment")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("not-ready status = %d, want 503", resp.StatusCode)
	}
}

// TestListenAndServeGracefulShutdown: cancellation drains and returns
// nil, and the listener actually stops.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "pong")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ListenAndServe(ctx, srv, time.Second) }()

	// Wait for the server to come up.
	url := "http://" + srv.Addr + "/ping"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("server still serving after shutdown")
	}
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, wantStatus, v)
}

func decodeBody(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw strings.Builder
		_ = json.NewDecoder(resp.Body).Decode(&raw)
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
