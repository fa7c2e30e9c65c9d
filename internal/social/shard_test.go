package social

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// dayPost builds a post on its own UTC day (= its own time bucket), so
// consecutive indices land on consecutive shards of a striped store.
func dayPost(i int) *Post {
	return &Post{
		ID:        fmt.Sprintf("day-%03d", i),
		Author:    "u",
		Text:      "daily #dpfdelete chatter on the excavator",
		CreatedAt: time.Date(2022, 1, 1, 9, 0, 0, 0, time.UTC).AddDate(0, 0, i),
		Region:    RegionEurope,
		Metrics:   Metrics{Views: 10 + i},
	}
}

func TestBucketOfFloorsPre1970(t *testing.T) {
	// Floor division: one nanosecond before an epoch-aligned bucket
	// boundary belongs to the previous bucket, on either side of 1970.
	boundary := time.Unix(0, 3*shardBucketNanos)
	if bucketOf(boundary) != 3 || bucketOf(boundary.Add(-time.Nanosecond)) != 2 {
		t.Errorf("post-1970 bucketing wrong: %d, %d", bucketOf(boundary), bucketOf(boundary.Add(-time.Nanosecond)))
	}
	neg := time.Unix(0, -3*shardBucketNanos)
	if bucketOf(neg) != -3 || bucketOf(neg.Add(-time.Nanosecond)) != -4 {
		t.Errorf("pre-1970 bucketing wrong: %d, %d", bucketOf(neg), bucketOf(neg.Add(-time.Nanosecond)))
	}
	// A pre-1970 post must be storable and searchable.
	s := NewStoreShards(4)
	old := &Post{ID: "old", Author: "u", Text: "vintage #dpfdelete", CreatedAt: time.Date(1969, 6, 1, 0, 0, 0, 0, time.UTC), Metrics: Metrics{Views: 1}}
	if err := s.Add(old); err != nil {
		t.Fatal(err)
	}
	page, err := s.Search(context.Background(), Query{})
	if err != nil || len(page.Posts) != 1 {
		t.Fatalf("pre-1970 post not found: %+v, %v", page, err)
	}
}

// TestCursorResumeAcrossShardBoundary drains a listing whose pages end
// on different shards at every step: posts sit one per day (one per
// bucket) on a 4-shard store, so a page of 3 always hands its keyset
// cursor to a different stripe than the one resuming the listing.
func TestCursorResumeAcrossShardBoundary(t *testing.T) {
	s := NewStoreShards(4)
	const n = 13
	for i := 0; i < n; i++ {
		if err := s.Add(dayPost(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	q := Query{MaxResults: 3}
	pages := 0
	for {
		page, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if page.TotalMatches != n {
			t.Fatalf("TotalMatches = %d, want %d", page.TotalMatches, n)
		}
		got = append(got, ids(page.Posts)...)
		pages++
		if page.NextToken == "" {
			break
		}
		// The cursor names the last delivered post; the next page's
		// first post lives in a different time bucket, i.e. resuming
		// seeks inside a shard that did not emit the cursor.
		q.PageToken = page.NextToken
	}
	if pages != 5 {
		t.Errorf("drained in %d pages, want 5", pages)
	}
	if len(got) != n {
		t.Fatalf("drained %d posts, want %d", len(got), n)
	}
	for i, id := range got {
		if want := fmt.Sprintf("day-%03d", i); id != want {
			t.Errorf("post %d = %s, want %s", i, id, want)
		}
	}
	// Resuming from a hand-built cursor between two buckets lands on
	// the first post of the following bucket.
	mid := CursorOf(s.Post("day-005"))
	page, err := s.Search(context.Background(), Query{MaxResults: 2, PageToken: EncodeCursor(mid)})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(page.Posts); len(got) != 2 || got[0] != "day-006" || got[1] != "day-007" {
		t.Errorf("mid-bucket resume = %v, want [day-006 day-007]", got)
	}
}

// renderListing drains a query page by page and renders every page —
// posts, continuation token and total — as one JSON document.
func renderListing(t *testing.T, s Searcher, q Query) []byte {
	t.Helper()
	var pages []*Page
	for i := 0; ; i++ {
		page, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("page %d of %+v: %v", i, q, err)
		}
		pages = append(pages, page)
		if page.NextToken == "" {
			break
		}
		q.PageToken = page.NextToken
	}
	out, err := json.Marshal(pages)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSearchShardCountEquivalence pins the sharded store to the
// single-stripe baseline: for every query shape, the full page-by-page
// listing — posts, keyset tokens and TotalMatches — must be
// byte-identical at 1, 4 and 16 shards.
func TestSearchShardCountEquivalence(t *testing.T) {
	posts, err := Generate(DefaultCorpusSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{MaxResults: 7},
		{MaxResults: 7, Since: ts(2021, 6, 1), Until: ts(2022, 6, 1)},
		{MaxResults: 7, Region: RegionEurope},
		{AnyTags: []string{"dpfdelete", "chiptuning"}, MaxResults: 5},
		{AnyTags: []string{"dpfdelete", "egrremoval"}, MustTerms: []string{"excavator"}, MaxResults: 3},
		{MustTerms: []string{"excavator", "limp"}, MaxResults: 2},
		{MustTerms: []string{"obd"}, Region: RegionNorthAmerica, Since: ts(2022, 1, 1), MaxResults: 4},
		{AnyTags: []string{"gpsblocker"}, Until: ts(2023, 1, 1), MaxResults: 6},
	}
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
			if string(got) != string(baseline[qi]) {
				t.Errorf("query %d: %d-shard listing differs from single-shard baseline\n1:  %.200s\n%d: %.200s",
					qi, shards, baseline[qi], shards, got)
			}
		}
	}
	// Guard against a vacuously green pass.
	if len(baseline) == 0 || string(baseline[0]) == "[]" {
		t.Fatal("baseline listings empty; equivalence test is vacuous")
	}
}

// TestWatchExactlyOnceAcrossShards floods a striped store from writers
// that each target a different time bucket (= a different stripe), with
// one subscriber registered before the writers start and a second
// attaching mid-flood: the first must get every flood post exactly
// once, the late one no duplicate and every post whose Add began after
// its Watch returned, and neither any post stored before the writers
// started. Run with -race.
func TestWatchExactlyOnceAcrossShards(t *testing.T) {
	s := NewStoreShards(8)
	for i := 0; i < 40; i++ {
		if err := s.Add(dayPost(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newLiveFlood(s)
	feed := f.watch(ctx)

	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	lateFeeds := make(chan *Feed, 1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Writer w stays inside day-bucket w (mod stripe count):
				// concurrent Adds always land on distinct shards.
				key := fmt.Sprintf("w%d-%03d", w, i)
				if !f.add(t, key, floodPost(key, time.Date(2023, 5, 1+w, i/60, i%60, 0, 0, time.UTC))) {
					return
				}
				if w == 0 && i == perWriter/2 {
					lateFeeds <- f.watch(ctx)
				}
			}
		}(w)
	}
	late := <-lateFeeds
	wg.Wait()
	f.finish(t)

	if n := f.check(t, "registered-first", 0, feed); n != writers*perWriter+1 {
		t.Errorf("registered-first subscriber: %d posts, want %d", n, writers*perWriter+1)
	}
	f.check(t, "registered-mid-flood", 1, late)
}

// TestWatchMultiShardBatchAtomic pins the batch contract: one Add
// whose posts span several stripes arrives at the changefeed as one
// batch, in (CreatedAt, ID) order.
func TestWatchMultiShardBatchAtomic(t *testing.T) {
	s := NewStoreShards(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)

	batch := make([]*Post, 6)
	for i := range batch {
		batch[i] = dayPost(i)
	}
	// Hand the batch over shuffled; delivery re-sorts it.
	if err := s.Add(batch[3], batch[0], batch[5], batch[1], batch[4], batch[2]); err != nil {
		t.Fatal(err)
	}
	got := nextPosts(t, feed)
	if len(got) != len(batch) {
		t.Fatalf("batch split across deliveries: got %d posts, want %d", len(got), len(batch))
	}
	for i, pp := range got {
		if want := fmt.Sprintf("day-%03d", i); pp.Post().ID != want {
			t.Errorf("batch[%d] = %s, want %s", i, pp.Post().ID, want)
		}
	}
}

// TestStoreShardsAccessor covers the stripe-count plumbing the daemons'
// -shards flag relies on.
func TestStoreShardsAccessor(t *testing.T) {
	if got := NewStore().Shards(); got != DefaultShards {
		t.Errorf("NewStore().Shards() = %d, want %d", got, DefaultShards)
	}
	if got := NewStoreShards(3).Shards(); got != 3 {
		t.Errorf("NewStoreShards(3).Shards() = %d, want 3", got)
	}
	if got := NewStoreShards(-1).Shards(); got != DefaultShards {
		t.Errorf("NewStoreShards(-1).Shards() = %d, want %d", got, DefaultShards)
	}
}
