package social

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/obs"
)

// lowerCompactThreshold shrinks the delta-generation bound so small
// test corpora exercise snapshot compaction, restoring it afterwards.
func lowerCompactThreshold(t *testing.T, n int) {
	t.Helper()
	old := shardCompactThreshold
	shardCompactThreshold = n
	t.Cleanup(func() { shardCompactThreshold = old })
}

// TestSearchLockFreeUnderHeldWriterLocks pins the tentpole contract
// directly: a Search must complete while every shard writer lock is
// held — the situation where the PR 3 store deadlocked a reader behind
// a committing (or stalled) writer. Post and Len live on the striped ID
// registry and must be equally unaffected.
func TestSearchLockFreeUnderHeldWriterLocks(t *testing.T) {
	s := NewStoreShards(4)
	if err := s.Add(samplePosts()...); err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()

	done := make(chan error, 1)
	go func() {
		page, err := s.Search(context.Background(), Query{AnyTags: []string{"dpfdelete"}})
		if err == nil && len(page.Posts) != 2 {
			err = fmt.Errorf("got %d posts, want 2", len(page.Posts))
		}
		if err == nil && s.Post("p1") == nil {
			err = fmt.Errorf("Post(p1) = nil under held writer locks")
		}
		if err == nil && s.Len() != 4 {
			err = fmt.Errorf("Len() = %d under held writer locks", s.Len())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Search blocked behind shard writer locks; reads are not lock-free")
	}
}

// TestSnapshotReaderCoherentUnderWriterBurst drains a keyset listing
// page by page while writers commit multi-stripe bursts (small enough
// pages that the drain straddles many commits, with the compaction
// threshold lowered so base generations are republished mid-drain).
// The snapshot contract: every page is internally sorted and
// duplicate-free, the drained listing never repeats a post, and every
// post present when the drain started is delivered. Run with -race.
func TestSnapshotReaderCoherentUnderWriterBurst(t *testing.T) {
	lowerCompactThreshold(t, 8)
	s := NewStoreShards(4)
	const initial = 120
	for i := 0; i < initial; i++ {
		if err := s.Add(dayPost(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Each burst spans four consecutive days — four distinct
				// stripes — so commits tear across shards if they can.
				burst := make([]*Post, 4)
				for j := range burst {
					burst[j] = &Post{
						ID:        fmt.Sprintf("burst-w%d-%04d-%d", w, i, j),
						Author:    "burst",
						Text:      "fresh #dpfdelete burst on the excavator",
						CreatedAt: time.Date(2023, 7, 1, 10, 0, 0, 0, time.UTC).AddDate(0, 0, (i*4+j)%120),
						Metrics:   Metrics{Views: 1},
					}
				}
				if err := s.Add(burst...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	seen := make(map[string]bool)
	q := Query{MaxResults: 7}
	for pages := 0; ; pages++ {
		if pages > maxSearchPages {
			t.Fatal("drain did not terminate")
		}
		page, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range page.Posts {
			if j > 0 && !postLess(page.Posts[j-1], p) {
				t.Fatalf("page %d out of order at %d: %s !< %s", pages, j, page.Posts[j-1].ID, p.ID)
			}
			if seen[p.ID] {
				t.Fatalf("post %s delivered twice across the drain", p.ID)
			}
			seen[p.ID] = true
		}
		if page.NextToken == "" {
			break
		}
		q.PageToken = page.NextToken
	}
	close(stop)
	wg.Wait()

	for i := 0; i < initial; i++ {
		if id := fmt.Sprintf("day-%03d", i); !seen[id] {
			t.Errorf("post %s was present at drain start but never delivered", id)
		}
	}
}

// prunedQueries exercises the window→stripe pruning paths: windows
// narrower than the stripe count (pruned), wider (unpruned), half-open
// and empty, combined with tag/term/region filters.
func prunedQueries() []Query {
	day := func(d int) time.Time { return time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d) }
	return []Query{
		{MaxResults: 7, Since: day(10), Until: day(11)},                                       // 1-day window
		{MaxResults: 5, Since: day(10).Add(6 * time.Hour), Until: day(11).Add(6 * time.Hour)}, // straddles a bucket boundary
		{MaxResults: 5, Since: day(3), Until: day(8)},                                         // 5-day window
		{MaxResults: 7, Since: day(0), Until: day(300)},                                       // wider than any stripe count
		{MaxResults: 7, Since: day(5)},                                                        // half-open: no pruning possible
		{MaxResults: 7, Until: day(20)},                                                       // half-open: no pruning possible
		{MaxResults: 7, Since: day(12), Until: day(12)},                                       // empty window
		{AnyTags: []string{"dpfdelete", "chiptuning"}, MaxResults: 4, Since: day(7), Until: day(9)},
		{MustTerms: []string{"excavator"}, MaxResults: 3, Since: day(2), Until: day(4), Region: RegionEurope},
	}
}

// TestSearchAllEquivalenceWithPruning pins pruning to the unpruned
// baseline: page-by-page listings — posts, keyset tokens and totals —
// must be byte-identical at 1, 4 and 16 shards. At one shard every
// window maps to the single stripe (pruning is a no-op); at 16 the
// narrow windows skip most stripes, so any post hiding in a wrongly
// skipped stripe diffs the rendering.
func TestSearchAllEquivalenceWithPruning(t *testing.T) {
	posts, err := Generate(DefaultCorpusSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	queries := prunedQueries()
	var baseline [][]byte
	for _, shards := range []int{1, 4, 16} {
		s := NewStoreShards(shards)
		if err := s.Add(posts...); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			got := renderListing(t, s, q)
			if shards == 1 {
				baseline = append(baseline, got)
				continue
			}
			if !bytes.Equal(got, baseline[qi]) {
				t.Errorf("query %d: %d-shard listing differs from single-shard baseline\n1:  %.200s\n%d: %.200s",
					qi, shards, baseline[qi], shards, got)
			}
		}
	}
	nonEmpty := 0
	for _, b := range baseline {
		if string(b) != "[]" && len(b) > 80 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d pruned queries matched posts; equivalence test is near-vacuous", nonEmpty)
	}
}

// TestWindowPruningVisitsOnlyStripeSet verifies the ≥5× fan-out
// reduction by the stripes attribute of each store.search span: on a
// 90-day corpus at 16 shards, a 1-day window must visit at most 2
// stripes (a day window can straddle one bucket boundary) while an
// unbounded query visits all 16.
func TestWindowPruningVisitsOnlyStripeSet(t *testing.T) {
	s := NewStoreShards(16)
	for i := 0; i < 90; i++ {
		if err := s.Add(dayPost(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	s.SetTracer(tr)
	ctx := context.Background()
	visited := func() int {
		t.Helper()
		n, err := strconv.Atoi(spanAttrs(findSpan(t, tr.Spans(1), "store.search"))["stripes"])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	page, err := s.Search(ctx, Query{})
	if err != nil || page.TotalMatches != 90 {
		t.Fatalf("unbounded search: %v (total %d)", err, page.TotalMatches)
	}
	if got := visited(); got != 16 {
		t.Errorf("unbounded query visited %d stripes, want 16", got)
	}

	day30 := dayPost(30).CreatedAt.Truncate(24 * time.Hour)
	page, err = s.Search(ctx, Query{Since: day30, Until: day30.AddDate(0, 0, 1)})
	if err != nil || page.TotalMatches != 1 || page.Posts[0].ID != "day-030" {
		t.Fatalf("1-day window search: %+v, %v", page, err)
	}
	if got := visited(); got > 2 {
		t.Errorf("1-day window visited %d stripes, want ≤ 2", got)
	}

	// An empty window visits nothing at all.
	if _, err := s.Search(ctx, Query{Since: day30, Until: day30}); err != nil {
		t.Fatal(err)
	}
	if got := visited(); got != 0 {
		t.Errorf("empty window visited %d stripes, want 0", got)
	}
}

// TestStripesFor covers the pruning rule's edges directly.
func TestStripesFor(t *testing.T) {
	s := NewStoreShards(8)
	day := func(d int) time.Time { return time.Unix(0, int64(d)*shardBucketNanos).UTC() }
	if got := s.stripesFor(time.Time{}, day(3)); got != nil {
		t.Errorf("half-open window pruned to %v", got)
	}
	if got := s.stripesFor(day(3), time.Time{}); got != nil {
		t.Errorf("half-open window pruned to %v", got)
	}
	if got := s.stripesFor(day(0), day(8)); got != nil {
		t.Errorf("full-round window pruned to %v", got)
	}
	if got := s.stripesFor(day(5), day(5)); got == nil || len(got) != 0 {
		t.Errorf("empty window → %v, want []", got)
	}
	if got := s.stripesFor(day(6), day(5)); got == nil || len(got) != 0 {
		t.Errorf("inverted window → %v, want []", got)
	}
	// Three buckets starting at bucket 6 on 8 stripes wrap to {6, 7, 0}.
	got := s.stripesFor(day(6), day(9))
	if len(got) != 3 || got[0] != 6 || got[1] != 7 || got[2] != 0 {
		t.Errorf("wrapping window → %v, want [6 7 0]", got)
	}
	// An until exactly on a bucket boundary excludes that bucket.
	if got := s.stripesFor(day(2), day(3)); len(got) != 1 || got[0] != 2 {
		t.Errorf("boundary-exclusive window → %v, want [2]", got)
	}
	// Pre-1970 windows prune into well-defined stripes too.
	if got := s.stripesFor(day(-3), day(-2)); len(got) != 1 || got[0] != 5 {
		t.Errorf("pre-1970 window → %v, want [5]", got)
	}
	// Bounds outside the int64-nanosecond range (the usual open-end
	// sentinels, remotely suppliable via the HTTP since/until params)
	// must fall back to the unpruned fan-out, not overflow. Regression:
	// a year-9999 until used to panic Search with a negative makeslice
	// cap.
	farFuture := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	farPast := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	if got := s.stripesFor(day(0), farFuture); got != nil {
		t.Errorf("far-future until pruned to %v, want nil", got)
	}
	if got := s.stripesFor(farPast, day(3)); got != nil {
		t.Errorf("far-past since pruned to %v, want nil", got)
	}
}

// TestSearchSentinelWindowBounds pins the end-to-end behaviour of
// out-of-range window sentinels: the query must return its matches
// instead of panicking or pruning them away.
func TestSearchSentinelWindowBounds(t *testing.T) {
	s := newTestStore(t)
	page, err := s.Search(context.Background(), Query{
		Since: ts(2020, 1, 1),
		Until: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil || page.TotalMatches != 4 {
		t.Fatalf("far-future until: %+v, %v (want all 4 posts)", page, err)
	}
	page, err = s.Search(context.Background(), Query{
		Since: time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		Until: ts(2022, 1, 1),
	})
	if err != nil || page.TotalMatches != 1 {
		t.Fatalf("far-past since: %+v, %v (want 1 post)", page, err)
	}
}

// TestCompactionEquivalence forces many base-generation folds and pins
// the result to a batch-loaded store: one-at-a-time ingest through a
// tiny compaction threshold must yield byte-identical listings.
func TestCompactionEquivalence(t *testing.T) {
	lowerCompactThreshold(t, 3)
	posts, err := Generate(DefaultCorpusSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	posts = posts[:200]
	incremental := NewStoreShards(4)
	for _, p := range posts {
		if err := incremental.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	batch := NewStoreShards(4)
	if err := batch.Add(posts...); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{MaxResults: 9},
		{AnyTags: []string{"dpfdelete", "chiptuning"}, MaxResults: 5},
		{MustTerms: []string{"excavator"}, MaxResults: 4},
	} {
		a, b := renderListing(t, incremental, q), renderListing(t, batch, q)
		if !bytes.Equal(a, b) {
			t.Errorf("query %+v: compacted listing differs from batch-loaded baseline\ninc:   %.200s\nbatch: %.200s", q, a, b)
		}
	}
	if got := incremental.SnapshotPosts(); len(got) != len(posts) {
		t.Errorf("SnapshotPosts() = %d posts, want %d", len(got), len(posts))
	}
}

// TestWatchExactlyOnceAcrossCOWCommits floods a striped store with
// multi-stripe batches (each spans four day buckets) under a lowered
// compaction threshold, with one subscriber registered up front and one
// attaching mid-flood. Each batch must arrive as one unit even though
// its snapshot swaps land stripe by stripe: the first subscriber gets
// every post exactly once, the late one no duplicate, no partial batch
// and every batch whose Add began after its Watch returned. Run with
// -race.
func TestWatchExactlyOnceAcrossCOWCommits(t *testing.T) {
	lowerCompactThreshold(t, 16)
	s := NewStoreShards(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newLiveFlood(s)
	feed := f.watch(ctx)

	const writers, burstsPerWriter, burstLen = 6, 30, 4
	var wg sync.WaitGroup
	lateFeeds := make(chan (<-chan []*PostProfile), 1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < burstsPerWriter; i++ {
				key := fmt.Sprintf("cow-w%d-%03d", w, i)
				batch := make([]*Post, burstLen)
				for j := range batch {
					batch[j] = floodPost(fmt.Sprintf("%s-%d", key, j),
						time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, (w*burstsPerWriter+i+j)%32))
				}
				if !f.add(t, key, batch...) {
					return
				}
				if w == 0 && i == burstsPerWriter/2 {
					lateFeeds <- f.watch(ctx)
				}
			}
		}(w)
	}
	late := <-lateFeeds
	wg.Wait()
	f.finish(t)

	if n := f.check(t, "registered-first", 0, feed); n != writers*burstsPerWriter*burstLen+1 {
		t.Errorf("registered-first subscriber: %d posts, want %d", n, writers*burstsPerWriter*burstLen+1)
	}
	f.check(t, "registered-mid-flood", 1, late)
}

// TestSkipTotal pins the SkipTotal contract across Store, server/client
// and Multi: identical posts and tokens, totals skipped on request.
func TestSkipTotal(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	q := Query{AnyTags: []string{"dpfdelete"}, MaxResults: 1}

	full, err := s.Search(ctx, q)
	if err != nil || full.TotalMatches != 2 {
		t.Fatalf("full search: %+v, %v", full, err)
	}
	q.SkipTotal = true
	skipped, err := s.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if skipped.TotalMatches != 0 {
		t.Errorf("SkipTotal page carries TotalMatches %d", skipped.TotalMatches)
	}
	if len(skipped.Posts) != 1 || skipped.Posts[0].ID != full.Posts[0].ID || skipped.NextToken != full.NextToken {
		t.Errorf("SkipTotal changed the page: %+v vs %+v", skipped, full)
	}

	// SkipTotal must not leak into the cache key: both variants select
	// the same posts.
	if c1, c2 := full.Posts[0], skipped.Posts[0]; c1 != c2 {
		t.Errorf("post identity differs: %v vs %v", c1, c2)
	}
	qq := q
	qq.SkipTotal = false
	if a, b := q.Canonical(), qq.Canonical(); fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("Canonical differs on SkipTotal: %+v vs %+v", a, b)
	}

	// The HTTP pair round-trips the flag.
	srv := httptest.NewServer(NewServer(s, nil).Handler())
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	remote, err := client.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if remote.TotalMatches != 0 || len(remote.Posts) != 1 || remote.Posts[0].ID != full.Posts[0].ID {
		t.Errorf("remote SkipTotal page: %+v", remote)
	}
	qf := q
	qf.SkipTotal = false
	remoteFull, err := client.Search(ctx, qf)
	if err != nil || remoteFull.TotalMatches != 2 {
		t.Errorf("remote full page: %+v, %v", remoteFull, err)
	}

	// Federated pass-through.
	m, err := NewMulti(PlatformSource{Name: "tw", Searcher: s})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := m.Search(ctx, q)
	if err != nil || fed.TotalMatches != 0 || len(fed.Posts) != 1 {
		t.Errorf("federated SkipTotal page: %+v, %v", fed, err)
	}

	// A malformed skip_total is rejected at the API edge.
	resp, err := srv.Client().Get(srv.URL + "/v2/search?skip_total=maybe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("skip_total=maybe → status %d, want 400", resp.StatusCode)
	}
}

// TestIDRegistryStriping hammers the striped duplicate detection:
// concurrent Adds of the same ID admit exactly one post, and distinct
// IDs across stripes all land. Run with -race.
func TestIDRegistryStriping(t *testing.T) {
	s := NewStoreShards(4)
	const contenders, uniques = 16, 200
	var wg sync.WaitGroup
	var dupErrs, wins sync.Map
	for c := 0; c < contenders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &Post{
				ID: "contested", Author: fmt.Sprintf("c%d", c), Text: "#dpfdelete race",
				CreatedAt: ts(2022, 4, 1), Metrics: Metrics{Views: c},
			}
			if err := s.Add(p); err != nil {
				dupErrs.Store(c, err)
			} else {
				wins.Store(c, true)
			}
			for i := 0; i < uniques/contenders; i++ {
				u := &Post{
					ID: fmt.Sprintf("u-%d-%d", c, i), Author: "u", Text: "#dpfdelete unique",
					CreatedAt: ts(2022, 1+i%12, 1+c), Metrics: Metrics{Views: 1},
				}
				if err := s.Add(u); err != nil {
					t.Error(err)
				}
			}
		}(c)
	}
	wg.Wait()
	winners := 0
	wins.Range(func(_, _ any) bool { winners++; return true })
	if winners != 1 {
		t.Errorf("%d Adds of the contested ID succeeded, want exactly 1", winners)
	}
	if got, want := s.Len(), 1+(uniques/contenders)*contenders; got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
	if s.Post("contested") == nil {
		t.Error("contested post missing from registry")
	}
	// The winner is searchable exactly once.
	page, err := s.Search(context.Background(), Query{MustTerms: []string{"race"}})
	if err != nil || page.TotalMatches != 1 {
		t.Errorf("contested post searchable %d times: %v", page.TotalMatches, err)
	}
}

// TestWriteStoreSnapshot round-trips a store through the lock-free
// JSON Lines dump while a writer keeps committing.
func TestWriteStoreSnapshot(t *testing.T) {
	s := NewStoreShards(4)
	for i := 0; i < 40; i++ {
		if err := s.Add(dayPost(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := dayPost(100 + i%50)
			p.ID = fmt.Sprintf("live-%04d", i)
			if err := s.Add(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var buf bytes.Buffer
	if err := WritePosts(&buf, s.SnapshotPosts()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	back, err := LoadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() < 40 {
		t.Errorf("round-tripped store has %d posts, want ≥ 40", back.Len())
	}
	for i := 0; i < 40; i++ {
		if back.Post(fmt.Sprintf("day-%03d", i)) == nil {
			t.Errorf("day-%03d lost in snapshot round trip", i)
		}
	}
}
