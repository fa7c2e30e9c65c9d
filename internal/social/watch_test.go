package social

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// backfillPost builds a post whose timestamp interleaves with the seeded
// listing — the late-arrival shape that shifted offset-token pages.
func backfillPost(i int, minute int) *Post {
	return &Post{
		ID:        fmt.Sprintf("late-%04d", i),
		Author:    "writer",
		Text:      "late #dpfdelete chatter",
		CreatedAt: time.Date(2022, 1, 1, 10, minute, 30, 0, time.UTC),
		Region:    RegionEurope,
		Metrics:   Metrics{Views: 1},
	}
}

// TestKeysetPaginationStableUnderAdd drains a listing page by page while
// a writer inserts posts whose timestamps land before the drain
// position. Offset tokens shifted the listing under the reader (the
// same post re-appeared on the next page); keyset tokens must deliver
// every pre-drain post exactly once and never duplicate anything.
func TestKeysetPaginationStableUnderAdd(t *testing.T) {
	s := NewStore()
	const seeded = 120
	for i := 0; i < seeded; i++ {
		if err := s.Add(&Post{
			ID:        fmt.Sprintf("seed-%04d", i),
			Author:    "seed",
			Text:      "seeded #dpfdelete post",
			CreatedAt: time.Date(2022, 1, 1, 10, i, 0, 0, time.UTC),
			Region:    RegionEurope,
			Metrics:   Metrics{Views: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[string]int)
	q := Query{AnyTags: []string{"dpfdelete"}, MaxResults: 10}
	late := 0
	for {
		page, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range page.Posts {
			seen[p.ID]++
		}
		if page.NextToken == "" {
			break
		}
		q.PageToken = page.NextToken
		// Insert posts timestamped BEFORE the current drain position —
		// with offsets these shifted the listing right and the reader
		// saw the tail of the previous page again.
		for k := 0; k < 5; k++ {
			if err := s.Add(backfillPost(late, (late*7)%seeded)); err != nil {
				t.Fatal(err)
			}
			late++
		}
	}

	for id, n := range seen {
		if n > 1 {
			t.Errorf("post %s delivered %d times", id, n)
		}
	}
	for i := 0; i < seeded; i++ {
		if seen[fmt.Sprintf("seed-%04d", i)] == 0 {
			t.Errorf("pre-drain post seed-%04d skipped", i)
		}
	}
}

// TestKeysetPaginationConcurrentWriter re-runs the stability scenario
// with a free-running writer goroutine (exercised under -race).
func TestKeysetPaginationConcurrentWriter(t *testing.T) {
	s := NewStore()
	const seeded = 200
	for i := 0; i < seeded; i++ {
		if err := s.Add(&Post{
			ID:        fmt.Sprintf("seed-%04d", i),
			Author:    "seed",
			Text:      "seeded #dpfdelete post",
			CreatedAt: time.Date(2022, 1, 1, 10, i%60, i/60, 0, time.UTC),
			Region:    RegionEurope,
			Metrics:   Metrics{Views: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Add(backfillPost(i, (i*13)%60)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	seen := make(map[string]int)
	q := Query{AnyTags: []string{"dpfdelete"}, MaxResults: 16}
	for {
		page, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range page.Posts {
			if seen[p.ID]++; seen[p.ID] > 1 {
				t.Errorf("post %s duplicated across pages", p.ID)
			}
		}
		if page.NextToken == "" {
			break
		}
		q.PageToken = page.NextToken
	}
	close(done)
	wg.Wait()
	for i := 0; i < seeded; i++ {
		if seen[fmt.Sprintf("seed-%04d", i)] == 0 {
			t.Errorf("pre-drain post seed-%04d skipped", i)
		}
	}
}

func TestWatchDeliversLiveBatches(t *testing.T) {
	s := newTestStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)

	batch := []*Post{
		{ID: "w1", Author: "a", Text: "one #dpfdelete", CreatedAt: ts(2023, 2, 1), Metrics: Metrics{Views: 1}},
		{ID: "w2", Author: "a", Text: "two #dpfdelete", CreatedAt: ts(2023, 2, 2), Metrics: Metrics{Views: 1}},
	}
	if err := s.Add(batch...); err != nil {
		t.Fatal(err)
	}
	got := collectFeed(t, feed, 2)
	if got[0] != "w1" || got[1] != "w2" {
		t.Errorf("live delivery = %v, want [w1 w2]", got)
	}

	// Cancellation unsubscribes: later batches no longer queue.
	cancel()
	for deadline := time.Now().Add(5 * time.Second); s.Stats().ChangefeedSubscribers > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("feed still subscribed after cancellation")
		}
	}
	if err := s.Add(&Post{ID: "w3", Author: "a", Text: "three", CreatedAt: ts(2023, 2, 3), Metrics: Metrics{Views: 1}}); err != nil {
		t.Fatal(err)
	}
	if batch, _ := feed.Next(); len(batch) != 0 {
		t.Errorf("cancelled feed still received %d posts", len(batch))
	}
}

// TestWatchBacklogCountsUntakenPosts: the backlog gauge is exactly the
// posts published to a subscriber that its Next has not yet taken, and
// Ready signals once for several batches.
func TestWatchBacklogCountsUntakenPosts(t *testing.T) {
	s := NewStoreShards(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)
	for b := 0; b < 3; b++ {
		batch := make([]*Post, 4)
		for i := range batch {
			batch[i] = dayPost(4*b + i)
		}
		if err := s.Add(batch...); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ChangefeedBacklog(); got != 12 {
		t.Fatalf("backlog = %d with 12 posts published and none taken, want 12", got)
	}
	if got := s.Stats().ChangefeedBacklog; got != 12 {
		t.Fatalf("Stats backlog = %d, want 12", got)
	}
	select {
	case <-feed.Ready():
	default:
		t.Fatal("no ready signal with posts pending")
	}
	if batch, _ := feed.Next(); len(batch) != 12 {
		t.Fatalf("Next took %d posts, want all 12", len(batch))
	}
	if got := s.ChangefeedBacklog(); got != 0 {
		t.Fatalf("backlog = %d after Next took everything, want 0", got)
	}
	select {
	case <-feed.Ready():
		t.Fatal("a second ready signal for batches one Next already took")
	default:
	}
}

// TestWatchNoLossNoDupUnderConcurrentAdd floods the store from several
// writers with one subscriber registered before they start: every
// flood post must arrive exactly once, and none of the posts stored
// before the subscription (the feed is live-only).
func TestWatchNoLossNoDupUnderConcurrentAdd(t *testing.T) {
	s := NewStore()
	for i := 0; i < 50; i++ {
		if err := s.Add(backfillPost(i, i%60)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newLiveFlood(s)
	feed := f.watch(ctx)

	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%03d", w, i)
				if !f.add(t, key, floodPost(key, time.Date(2022, 3, 1+w, 0, i/60, i%60, 0, time.UTC))) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	f.finish(t)
	if n := f.check(t, "registered-first", 0, feed); n != writers*perWriter+1 {
		t.Errorf("delivered %d posts, want %d", n, writers*perWriter+1)
	}
}

// nextPosts waits for the feed's signal and takes what is pending,
// failing the test when nothing arrives within 10 s.
func nextPosts(t *testing.T, feed *Feed) []*PostProfile {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-feed.Ready():
		case <-deadline:
			t.Fatal("no posts arrived on the feed")
		}
		if batch, _ := feed.Next(); len(batch) > 0 {
			return batch
		}
	}
}

// collectFeed reads IDs off a feed until n posts arrived or a timeout.
func collectFeed(t *testing.T, feed *Feed, n int) []string {
	t.Helper()
	var out []string
	for len(out) < n {
		for _, pp := range nextPosts(t, feed) {
			out = append(out, pp.Post().ID)
		}
	}
	if len(out) > n {
		t.Fatalf("feed over-delivered: %d posts, want %d", len(out), n)
	}
	return out
}

// TestWatchSubscribeDuringConcurrentAdd registers subscribers while
// writers commit two-stripe batches. Registration copy-on-writes the
// subscriber set without touching the writers, so a batch committing
// during a registration may or may not reach the new subscriber — but
// each subscriber gets no post twice, no part of a batch without the
// rest, and every batch whose Add began after its Watch returned.
func TestWatchSubscribeDuringConcurrentAdd(t *testing.T) {
	s := NewStoreShards(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newLiveFlood(s)

	const writers, perWriter, watchers = 4, 80, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("mid-w%d-%03d", w, i)
				at := time.Date(2022, 6, 1+w, 0, i/60, i%60, 0, time.UTC)
				// Days w and w+4 sit on different stripes of eight.
				if !f.add(t, key, floodPost(key+"-a", at), floodPost(key+"-b", at.AddDate(0, 0, 4))) {
					return
				}
			}
		}(w)
	}

	feeds := make([]*Feed, watchers)
	for i := range feeds {
		feeds[i] = f.watch(ctx)
	}
	wg.Wait()
	f.finish(t)
	for i, feed := range feeds {
		f.check(t, fmt.Sprintf("watcher %d", i), i, feed)
	}
}

// liveFlood drives a changefeed test's writers and checks each
// subscriber against the live-only contract. Every Add batch is
// recorded with the number of subscriptions whose Watch had returned
// when the Add began: those subscribers are owed the whole batch. Calls
// to watch must not run concurrently with each other.
type liveFlood struct {
	s       *Store
	watches atomic.Int32
	mu      sync.Mutex
	batches map[string][]string // batch key → post IDs
	owed    map[string]int32    // batch key → subscriptions owed the batch
}

func newLiveFlood(s *Store) *liveFlood {
	return &liveFlood{s: s, batches: make(map[string][]string), owed: make(map[string]int32)}
}

// watch subscribes; the subscription counts once Watch has returned.
func (f *liveFlood) watch(ctx context.Context) *Feed {
	feed := f.s.Watch(ctx)
	f.watches.Add(1)
	return feed
}

// add commits one batch under key, reporting failures through t.
func (f *liveFlood) add(t *testing.T, key string, batch ...*Post) bool {
	owed := f.watches.Load()
	ids := make([]string, len(batch))
	for i, p := range batch {
		ids[i] = p.ID
	}
	f.mu.Lock()
	f.batches[key], f.owed[key] = ids, owed
	f.mu.Unlock()
	if err := f.s.Add(batch...); err != nil {
		t.Error(err)
		return false
	}
	return true
}

// finish adds the sentinel batch once every writer is done: every
// subscriber is owed it, and it is queued behind every earlier batch.
func (f *liveFlood) finish(t *testing.T) {
	t.Helper()
	if !f.add(t, sentinelID, floodPost(sentinelID, time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))) {
		t.FailNow()
	}
}

const sentinelID = "flood-sentinel"

// check drains the k-th subscription (0-based, in watch order) up to
// the sentinel and asserts no duplicate, no partial batch, no post from
// outside the flood and every owed batch. It returns the number of
// posts delivered.
func (f *liveFlood) check(t *testing.T, name string, k int, feed *Feed) int {
	t.Helper()
	got := make(map[string]int)
	for got[sentinelID] == 0 {
		for _, pp := range nextPosts(t, feed) {
			got[pp.Post().ID]++
		}
	}
	delivered := 0
	for key, ids := range f.batches {
		n := 0
		for _, id := range ids {
			if got[id] > 1 {
				t.Errorf("%s: post %s delivered %d times", name, id, got[id])
			}
			if got[id] > 0 {
				n++
			}
			delete(got, id)
		}
		if n > 0 && n < len(ids) {
			t.Errorf("%s: batch %s arrived partially (%d of %d posts)", name, key, n, len(ids))
		}
		if n == 0 && int(f.owed[key]) > k {
			t.Errorf("%s: batch %s, added after the subscription, never arrived", name, key)
		}
		delivered += n
	}
	for id := range got {
		t.Errorf("%s: post %s is not from the flood (stored before the subscription?)", name, id)
	}
	return delivered
}

// floodPost builds one writer post.
func floodPost(id string, at time.Time) *Post {
	return &Post{ID: id, Author: "writer", Text: "flood #dpfdelete", CreatedAt: at, Metrics: Metrics{Views: 1}}
}

// TestWatchProfilesMatchLikeProfilePost: the changefeed delivers the
// profiles the store built to index each post, and a delivered profile
// must answer every query exactly as ProfilePost of its post does — and
// as the store's own Search does. Posts repeat and mix the case of
// hashtags, use a hashtag also as a word, and spread over regions,
// stripes and time.
func TestWatchProfilesMatchLikeProfilePost(t *testing.T) {
	s := NewStoreShards(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)

	texts := []string{
		"#DPFdelete on the excavator #dpfdelete",
		"chiptuning my truck, no #chiptuning tag needed",
		"#chiptuning #Stage1 remap excavator",
		"plain excavator chatter",
		"#egrdelete #dpfdelete kit for the Truck",
	}
	regions := []Region{RegionEurope, RegionNorthAmerica, RegionAsiaPacific}
	var posts []*Post
	for i := 0; i < 30; i++ {
		posts = append(posts, &Post{
			ID:        fmt.Sprintf("pf-%02d", i),
			Author:    "a",
			Text:      texts[i%len(texts)],
			CreatedAt: time.Date(2023, 1, 1+i, i%24, 0, 0, 0, time.UTC),
			Region:    regions[i%len(regions)],
			Metrics:   Metrics{Views: 1},
		})
	}
	if err := s.Add(posts[:10]...); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(posts[10:]...); err != nil {
		t.Fatal(err)
	}
	var got []*PostProfile
	for len(got) < len(posts) {
		got = append(got, nextPosts(t, feed)...)
	}

	mid := time.Date(2023, 1, 15, 0, 0, 0, 0, time.UTC)
	queries := []Query{
		{},
		{AnyTags: []string{"dpfdelete"}},
		{AnyTags: []string{"#ChipTuning", "stage1"}},
		{MustTerms: []string{"excavator"}},
		{MustTerms: []string{"chiptuning"}},
		{AnyTags: []string{"dpfdelete", "chiptuning"}, MustTerms: []string{"truck"}},
		{AnyTags: []string{"chiptuning"}, Region: RegionNorthAmerica},
		{MustTerms: []string{"excavator"}, Since: mid},
		{AnyTags: []string{"dpfdelete"}, Until: mid, Region: RegionEurope},
	}
	for qi, q := range queries {
		listed := make(map[string]bool)
		all := q
		all.MaxResults = MaxPageSize
		page, err := s.Search(context.Background(), all)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range page.Posts {
			listed[p.ID] = true
		}
		m := q.Matcher()
		for _, pp := range got {
			delivered, fresh := m.Matches(pp), m.Matches(ProfilePost(pp.Post()))
			if delivered != fresh || delivered != listed[pp.Post().ID] {
				t.Errorf("query %d, post %s: delivered profile matches %v, ProfilePost %v, Search lists it %v",
					qi, pp.Post().ID, delivered, fresh, listed[pp.Post().ID])
			}
		}
	}
}
