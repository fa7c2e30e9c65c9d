// Chaos tests: disk faults through the durable seam, degraded
// read-only mode, federated partial failure, circuit-breaker
// transitions, and client retry under a flaky transport. All
// deterministic (seeded injectors, fake clocks) and -race clean.
package social

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/fault"
)

// TestChaosStoreDegradedReadOnly: a persistent fsync failure must flip
// the store into read-only degraded mode — ingest refused with the
// typed sentinel, reads untouched — and a restart must recover every
// acknowledged post.
func TestChaosStoreDegradedReadOnly(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("simulated fsync failure")
	fs := &fault.FS{Sync: fault.New(fault.Config{FailFrom: 4, Err: boom})}
	s, err := OpenStoreDir(dir, DurableOptions{Shards: 1, CompactEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}

	var acked []*Post
	var failErr error
	for i := 0; failErr == nil && i < 20; i++ {
		p := durPost(i, i)
		if err := s.Add(p); err != nil {
			failErr = err
		} else {
			acked = append(acked, p)
		}
	}
	if failErr == nil {
		t.Fatal("no Add failed despite the injected fsync fault")
	}
	if len(acked) == 0 {
		t.Fatal("no Add was acknowledged before the fault")
	}
	if !errors.Is(s.Degraded(), ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", s.Degraded())
	}
	var de *DegradedError
	if !errors.As(s.Degraded(), &de) || !errors.Is(de.Cause, boom) {
		t.Fatalf("degraded cause = %v, want %v", s.Degraded(), boom)
	}

	// Ingest now fails fast with the sentinel, without touching the WAL.
	if err := s.Add(durPost(100, 2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Add while degraded = %v, want ErrDegraded", err)
	}

	// Reads keep serving the committed state.
	if got := s.Len(); got != len(acked) {
		t.Fatalf("Len while degraded = %d, want %d", got, len(acked))
	}
	page, err := s.Search(context.Background(), Query{MaxResults: MaxPageSize})
	if err != nil {
		t.Fatalf("Search while degraded: %v", err)
	}
	if len(page.Posts) != len(acked) {
		t.Fatalf("Search while degraded returned %d posts, want %d", len(page.Posts), len(acked))
	}
	if s.Stats().Degraded != true || s.Stats().DegradedCause == "" {
		t.Fatalf("Stats does not report degradation: %+v", s.Stats())
	}

	// Restart on a healthy disk: every acknowledged post recovers and
	// the store is writable again.
	s.closeAbrupt()
	s2, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen after degraded crash: %v", err)
	}
	defer s2.Close()
	if s2.Degraded() != nil {
		t.Fatalf("reopened store still degraded: %v", s2.Degraded())
	}
	for _, p := range acked {
		if s2.Post(p.ID) == nil {
			t.Fatalf("acknowledged post %s lost across restart", p.ID)
		}
	}
	if err := s2.Add(durPost(200, 3)); err != nil {
		t.Fatalf("Add after restart: %v", err)
	}
}

// TestChaosTornWriteByteIdentity: when the disk tears a WAL write, the
// reopened store must serve a listing byte-identical to exactly the
// acknowledged posts — the torn record is truncated, not half-applied.
func TestChaosTornWriteByteIdentity(t *testing.T) {
	dir := t.TempDir()
	fs := &fault.FS{Write: fault.New(fault.Config{FailFrom: 5}), Torn: true}
	s, err := OpenStoreDir(dir, DurableOptions{Shards: 1, CompactEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}

	oracle := NewStore() // in-memory twin holding only acknowledged posts
	sawFailure := false
	for i := 0; i < 12; i++ {
		p := durPost(i, i%5)
		if err := s.Add(p); err != nil {
			sawFailure = true
		} else if err := oracle.Add(clonePost(p)); err != nil {
			t.Fatal(err)
		}
	}
	if !sawFailure {
		t.Fatal("no Add failed despite the injected torn write")
	}
	s.closeAbrupt()

	s2, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer s2.Close()
	if got, want := listAll(t, s2), listAll(t, oracle); string(got) != string(want) {
		t.Fatalf("recovered listing differs from acknowledged posts:\n got: %s\nwant: %s", got, want)
	}
}

func clonePost(p *Post) *Post {
	cp := *p
	return &cp
}

// TestChaosAcknowledgedNeverLostConcurrent: concurrent writers against
// a randomly failing, tearing disk — every Add acknowledged before the
// crash must survive the restart. The seeded injector makes the
// failure schedule reproducible.
func TestChaosAcknowledgedNeverLostConcurrent(t *testing.T) {
	dir := t.TempDir()
	fs := &fault.FS{
		Write: fault.New(fault.Config{Seed: 7, ErrorRate: 0.05}),
		Torn:  true,
	}
	s, err := OpenStoreDir(dir, DurableOptions{Shards: 4, CompactEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 40
	var mu sync.Mutex
	acked := make(map[string]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := &Post{
					ID:        fmt.Sprintf("chaos-%d-%03d", w, i),
					Author:    fmt.Sprintf("bot-%d", w),
					Text:      fmt.Sprintf("chaos #walchaos payload %d-%d", w, i),
					CreatedAt: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, (w*perWorker+i)%90),
					Region:    RegionEurope,
					Metrics:   Metrics{Views: i},
				}
				if err := s.Add(p); err == nil {
					mu.Lock()
					acked[p.ID] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no Add was acknowledged")
	}
	if len(acked) == workers*perWorker && s.Degraded() == nil {
		t.Fatal("injector never fired; chaos schedule is vacuous")
	}
	s.closeAbrupt()

	s2, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen after chaos run: %v", err)
	}
	defer s2.Close()
	for id := range acked {
		if s2.Post(id) == nil {
			t.Fatalf("acknowledged post %s lost across restart", id)
		}
	}
}

// fakeClock is a deterministic breaker clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// multiFixture builds a two-backend federation: healthy "alpha" and a
// fault-wrapped "beta" whose injector starts disabled (healthy).
func multiFixture(t *testing.T, opts MultiOptions, alphaDays, betaDays []int) (*Multi, *fault.Injector) {
	t.Helper()
	mk := func(name string, days []int) *Store {
		s := NewStore()
		for _, d := range days {
			p := &Post{
				ID:        fmt.Sprintf("d%02d", d),
				Author:    "author-" + name,
				Text:      "federated #chaos traffic",
				CreatedAt: time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, d),
				Region:    RegionEurope,
				Metrics:   Metrics{Views: d},
			}
			if err := s.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	inj := fault.New(fault.Config{FailFrom: 1})
	inj.Disable()
	m, err := NewMultiOptions(opts,
		PlatformSource{Name: "alpha", Searcher: mk("alpha", alphaDays)},
		PlatformSource{Name: "beta", Searcher: WithFault(mk("beta", betaDays), inj)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m, inj
}

func backendStatus(t *testing.T, page *Page, name string) BackendStatus {
	t.Helper()
	for _, st := range page.Backends {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("page has no status for backend %q: %+v", name, page.Backends)
	return BackendStatus{}
}

// TestChaosMultiPartialPage: with Partial set, a page with one failing
// backend serves the healthy backend's posts annotated as degraded;
// with every backend failing it errors; in strict mode any failure
// fails the page.
func TestChaosMultiPartialPage(t *testing.T) {
	m, inj := multiFixture(t, MultiOptions{Partial: true}, []int{1, 3, 5}, []int{2, 4, 6})
	ctx := context.Background()

	// Healthy baseline: both backends contribute, nothing degraded.
	page, err := m.Search(ctx, Query{MaxResults: MaxPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if page.Degraded || len(page.Posts) != 6 || page.TotalMatches != 6 {
		t.Fatalf("healthy page: degraded=%v posts=%d total=%d", page.Degraded, len(page.Posts), page.TotalMatches)
	}
	if page.Backends != nil {
		t.Fatalf("healthy page carries backend annotations: %+v", page.Backends)
	}

	// beta down: the page degrades to alpha's posts.
	inj.Enable()
	page, err = m.Search(ctx, Query{MaxResults: MaxPageSize})
	if err != nil {
		t.Fatalf("partial mode failed outright: %v", err)
	}
	if !page.Degraded {
		t.Fatal("page with a failing backend not marked Degraded")
	}
	if len(page.Posts) != 3 || page.TotalMatches != 3 {
		t.Fatalf("degraded page: posts=%d total=%d, want alpha's 3", len(page.Posts), page.TotalMatches)
	}
	for _, p := range page.Posts {
		if !strings.HasPrefix(p.ID, "alpha:") {
			t.Fatalf("degraded page contains non-alpha post %s", p.ID)
		}
	}
	if st := backendStatus(t, page, "alpha"); !st.Healthy {
		t.Fatalf("alpha annotated unhealthy: %+v", st)
	}
	st := backendStatus(t, page, "beta")
	if st.Healthy || !strings.Contains(st.Err, "injected") {
		t.Fatalf("beta annotation = %+v, want unhealthy with the injected error", st)
	}

	// All backends down: even partial mode errors.
	alphaDown, err := NewMultiOptions(MultiOptions{Partial: true},
		PlatformSource{Name: "only", Searcher: WithFault(NewStore(), fault.New(fault.Config{FailFrom: 1}))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alphaDown.Search(ctx, Query{}); err == nil {
		t.Fatal("partial mode with zero healthy backends must error")
	}

	// Strict mode: one failing backend fails the page with its name.
	strict, injStrict := multiFixture(t, MultiOptions{}, []int{1}, []int{2})
	injStrict.Enable()
	if _, err := strict.Search(ctx, Query{}); err == nil {
		t.Fatal("strict mode served a page despite a failing backend")
	} else if !strings.Contains(err.Error(), "beta") || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("strict error = %v, want the beta injected failure", err)
	}
}

// TestChaosBreakerLifecycle: consecutive failures open the backend's
// breaker (fail-fast skips, no traffic to the backend), the cooldown
// admits a half-open probe, a failed probe re-opens, and a successful
// probe re-closes with the backend back in the merge.
func TestChaosBreakerLifecycle(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	m, inj := multiFixture(t, MultiOptions{
		Partial:          true,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		now:              clock.Now,
	}, []int{1, 3}, []int{2, 4})
	ctx := context.Background()
	q := Query{MaxResults: MaxPageSize}

	inj.Enable()
	for i := 0; i < 2; i++ { // two consecutive failures reach the threshold
		if _, err := m.Search(ctx, q); err != nil {
			t.Fatalf("partial page %d: %v", i, err)
		}
	}
	if got := m.BackendState("beta"); got != BreakerOpen {
		t.Fatalf("after %d failures state = %v, want open", 2, got)
	}

	// Open: beta is skipped fail-fast — the injector sees no traffic.
	opsBefore := inj.Ops()
	page, err := m.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Ops() != opsBefore {
		t.Fatal("open breaker still sent traffic to the broken backend")
	}
	st := backendStatus(t, page, "beta")
	if st.Healthy || !strings.Contains(st.Err, "skipped") {
		t.Fatalf("skip annotation = %+v", st)
	}
	if st.Breaker != "open" {
		t.Fatalf("skip annotation breaker = %q, want open", st.Breaker)
	}

	// Cooldown elapses; the backend is still broken: the single
	// half-open probe fails and the breaker re-opens.
	clock.Advance(61 * time.Second)
	probeOps := inj.Ops()
	if _, err := m.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	if inj.Ops() != probeOps+1 {
		t.Fatalf("half-open admitted %d probes, want exactly 1", inj.Ops()-probeOps)
	}
	if got := m.BackendState("beta"); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}

	// Backend recovers; after the next cooldown the probe succeeds and
	// the breaker closes — beta's posts rejoin the page.
	inj.Disable()
	clock.Advance(61 * time.Second)
	page, err = m.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BackendState("beta"); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if page.Degraded {
		t.Fatal("page after recovery still marked degraded")
	}
	if len(page.Posts) != 4 {
		t.Fatalf("recovered page has %d posts, want 4 (both backends)", len(page.Posts))
	}
	if page.Backends != nil {
		t.Fatalf("healthy page carries backend annotations: %+v", page.Backends)
	}
}

// TestChaosMultiCursorStableAcrossRecovery: a federated listing paged
// through a backend outage must stay cursor-stable — no duplicates, no
// replays — and the recovered backend rejoins from the current cursor.
func TestChaosMultiCursorStableAcrossRecovery(t *testing.T) {
	m, inj := multiFixture(t, MultiOptions{Partial: true},
		[]int{1, 3, 5, 7, 9, 11}, []int{2, 4, 6, 8, 10, 12})
	ctx := context.Background()

	seen := make(map[string]bool)
	fetch := func(token string, wantIDs ...string) *Page {
		t.Helper()
		page, err := m.Search(ctx, Query{MaxResults: 4, PageToken: token})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range page.Posts {
			if seen[p.ID] {
				t.Fatalf("post %s served twice across the outage", p.ID)
			}
			seen[p.ID] = true
			got = append(got, p.ID)
		}
		if len(got) != len(wantIDs) {
			t.Fatalf("page = %v, want %v", got, wantIDs)
		}
		for i := range wantIDs {
			if got[i] != wantIDs[i] {
				t.Fatalf("page = %v, want %v", got, wantIDs)
			}
		}
		return page
	}

	// Page 1, both healthy: days 1-4 interleaved.
	page := fetch("", "alpha:d01", "beta:d02", "alpha:d03", "beta:d04")

	// beta goes down mid-listing: the next page serves alpha alone.
	inj.Enable()
	page = fetch(page.NextToken, "alpha:d05", "alpha:d07", "alpha:d09", "alpha:d11")
	if !page.Degraded {
		t.Fatal("outage page not marked degraded")
	}

	// beta recovers: it rejoins from the cursor — days 6-10 fell inside
	// the degraded window and are not replayed (keyset cursors never go
	// backwards); only day 12 remains.
	inj.Disable()
	page = fetch(page.NextToken, "beta:d12")
	if page.Degraded {
		t.Fatal("recovered page still marked degraded")
	}
	if page.NextToken != "" {
		// Either no token, or a token leading to an empty final page.
		final, err := m.Search(ctx, Query{MaxResults: 4, PageToken: page.NextToken})
		if err != nil {
			t.Fatal(err)
		}
		if len(final.Posts) != 0 {
			t.Fatalf("listing did not terminate: %d extra posts", len(final.Posts))
		}
	}
}

// TestChaosClientRetriesTransient: gateway-shaped 5xx responses and
// injected transport faults retry with backoff and then succeed.
func TestChaosClientRetriesTransient(t *testing.T) {
	store := NewStore()
	if err := store.Add(samplePosts()...); err != nil {
		t.Fatal(err)
	}
	inner := NewServer(store, nil).Handler()
	var mu sync.Mutex
	failures := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client())
	c.RetryBase = 8 * time.Millisecond
	var waits []time.Duration
	c.sleep = func(_ context.Context, d time.Duration) error {
		waits = append(waits, d)
		return nil
	}
	c.jitter = func(d time.Duration) time.Duration { return d } // deterministic

	page, err := c.Search(context.Background(), Query{MaxResults: MaxPageSize})
	if err != nil {
		t.Fatalf("search through transient 503s: %v", err)
	}
	if len(page.Posts) == 0 {
		t.Fatal("retried search returned no posts")
	}
	if len(waits) != 2 || waits[0] != 8*time.Millisecond || waits[1] != 16*time.Millisecond {
		t.Fatalf("backoff waits = %v, want [8ms 16ms]", waits)
	}

	// Transport-level faults (connection reset shapes) retry the same way.
	c2 := NewClient(srv.URL, &http.Client{
		Transport: &fault.RoundTripper{Inj: fault.New(fault.Config{FailOps: []int{1}})},
	})
	c2.sleep = func(context.Context, time.Duration) error { return nil }
	if _, err := c2.Search(context.Background(), Query{MaxResults: 1}); err != nil {
		t.Fatalf("search through injected transport fault: %v", err)
	}
}

// TestChaosClientRetryExhaustion: a persistently failing backend runs
// out of retries and surfaces the final error.
func TestChaosClientRetryExhaustion(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client())
	c.MaxRetries = 2
	c.sleep = func(context.Context, time.Duration) error { return nil }
	if _, err := c.Search(context.Background(), Query{}); err == nil {
		t.Fatal("search succeeded against a permanently failing backend")
	} else if !strings.Contains(err.Error(), "502") {
		t.Fatalf("error = %v, want the final 502", err)
	}
	if requests != 3 {
		t.Fatalf("made %d requests, want 3 (initial + 2 retries)", requests)
	}
}

// TestChaosClientRateLimitWaitHonorsContext: a cancelled context must
// cut a Retry-After wait short instead of serving it out — the bug this
// release fixed.
func TestChaosClientRateLimitWaitHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client()) // real ctxSleep
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Search(ctx, Query{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rate-limit wait ignored the context for %v", elapsed)
	}
}
