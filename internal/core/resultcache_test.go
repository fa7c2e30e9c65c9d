package core

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

func deltaPost(i int, text string) *social.Post {
	return &social.Post{
		ID:        fmt.Sprintf("delta-%03d", i),
		Author:    fmt.Sprintf("newuser%d", i),
		Text:      text,
		CreatedAt: time.Date(2023, 3, 1, 12, i%60, i/60, 0, time.UTC),
		Region:    social.RegionEurope,
		Metrics:   social.Metrics{Views: 120 + i, Likes: 10},
	}
}

func TestQueryCacheServesIdenticalListings(t *testing.T) {
	store, err := social.DefaultStore(7)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingSearcher{inner: store}
	cache := NewQueryCache(counting)
	q := social.Query{AnyTags: []string{"dpfdelete", "chiptuning"}, MaxResults: 50}

	direct, err := social.SearchAll(context.Background(), store, q)
	if err != nil {
		t.Fatal(err)
	}
	viaCache, err := social.SearchAll(context.Background(), cache, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids(direct), ids(viaCache)) {
		t.Fatal("cached listing differs from direct drain")
	}
	warm := counting.calls.Load()
	if _, err := social.SearchAll(context.Background(), cache, q); err != nil {
		t.Fatal(err)
	}
	// A differently ordered, differently paged spelling of the same
	// query hits the same cache entry.
	if _, err := cache.Search(context.Background(), social.Query{AnyTags: []string{"#ChipTuning", "dpfdelete"}, MaxResults: 10}); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != warm {
		t.Errorf("cache hit reached the backend: %d calls, want %d", counting.calls.Load(), warm)
	}
}

func TestQueryCacheInvalidationIsExact(t *testing.T) {
	store := social.NewStore()
	if err := store.Add(
		&social.Post{ID: "a", Author: "u", Text: "#dpfdelete on the excavator", CreatedAt: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC), Region: social.RegionEurope, Metrics: social.Metrics{Views: 1}},
		&social.Post{ID: "b", Author: "u", Text: "#chiptuning the car", CreatedAt: time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC), Region: social.RegionEurope, Metrics: social.Metrics{Views: 1}},
	); err != nil {
		t.Fatal(err)
	}
	cache := NewQueryCache(store)
	ctx := context.Background()
	for _, tags := range [][]string{{"dpfdelete"}, {"chiptuning"}} {
		if _, err := cache.Search(ctx, social.Query{AnyTags: tags}); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d listings, want 2", cache.Len())
	}

	// A post that matches neither query leaves both listings valid.
	neutral := deltaPost(0, "#egrremoval chatter")
	if n := cache.Invalidate(neutral); n != 0 || cache.Len() != 2 {
		t.Errorf("neutral post dropped %d listings (len %d)", n, cache.Len())
	}
	// A dpfdelete post drops exactly the dpfdelete listing.
	hit := deltaPost(1, "new #dpfdelete kit")
	if n := cache.Invalidate(hit); n != 1 || cache.Len() != 1 {
		t.Errorf("matching post dropped %d listings (len %d), want 1 (len 1)", n, cache.Len())
	}
	// The refreshed listing includes the new post once re-added.
	if err := store.Add(hit); err != nil {
		t.Fatal(err)
	}
	page, err := cache.Search(ctx, social.Query{AnyTags: []string{"dpfdelete"}})
	if err != nil {
		t.Fatal(err)
	}
	if page.TotalMatches != 2 {
		t.Errorf("refreshed listing has %d matches, want 2", page.TotalMatches)
	}
}

// TestRunSocialDeltaMatchesColdRun is the core equivalence guarantee:
// after ingesting a delta and invalidating, the incremental run equals
// a cold RunSocial over the merged corpus — reflect.DeepEqual over the
// whole SocialResult, including the float-valued index and tunings. The
// cases cover the incremental graph's two paths: a listing that grew
// (the previous graph extended by the added posts) and one that lost a
// post it held before, through the poisoning defence or a backend that
// stopped returning it (the graph rebuilt from scratch).
func TestRunSocialDeltaMatchesColdRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		filter bool
		hide   bool
	}{
		{name: "plain"},
		{name: "filter", filter: true},
		{name: "hidden", hide: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := social.DefaultStore(99)
			if err != nil {
				t.Fatal(err)
			}
			backend := &hidingSearcher{inner: store}
			fw, err := New(Config{Searcher: backend})
			if err != nil {
				t.Fatal(err)
			}
			threats := []*tara.ThreatScenario{ecmThreat()}
			in := SocialInput{Threats: threats, FilterInauthentic: tc.filter}
			ctx := context.Background()
			rc := NewResultCache(backend)

			warm, err := fw.RunSocialDelta(ctx, in, rc)
			if err != nil {
				t.Fatal(err)
			}
			coldBefore, err := fw.RunSocial(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, coldBefore) {
				t.Fatal("initial delta run differs from cold run over the same corpus")
			}

			if tc.hide {
				// Hide a listed post whose only tag the delta carries, so
				// every listing holding it is re-drained without it.
				hidden := soleTagPost(t, rc, "chiptuning")
				backend.hide.Store(&hidden)
			}

			// Ingest a delta touching one topic and the ECM threat, plus noise.
			var delta []*social.Post
			for i := 10; i < 40; i++ {
				text := "fresh #chiptuning remap results"
				if i%3 == 0 {
					text = "unrelated #fillerchatter noise"
				}
				delta = append(delta, deltaPost(i, text))
			}
			if err := store.Add(delta...); err != nil {
				t.Fatal(err)
			}
			if n := rc.Invalidate(delta...); n == 0 {
				t.Fatal("delta invalidated nothing; test is vacuous")
			}

			incremental, err := fw.RunSocialDelta(ctx, in, rc)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := fw.RunSocial(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(incremental, cold) {
				t.Errorf("incremental result diverged from cold run\nincremental index: %+v\ncold index: %+v",
					incremental.Index.Entries, cold.Index.Entries)
			}
			// The delta must actually have moved the result (non-vacuous).
			if reflect.DeepEqual(incremental.Index, coldBefore.Index) {
				t.Error("delta did not change the index; equivalence test is vacuous")
			}
			checkMemos(t, fw, rc)
		})
	}
}

// checkMemos asserts that every memoized slice's features and
// co-occurrence graph equal a fresh analysis of its posts — the memo
// invariant the incremental path maintains by reuse and extension.
func checkMemos(t *testing.T, fw *Framework, rc *ResultCache) {
	t.Helper()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for sig, qs := range rc.slices {
		if !reflect.DeepEqual(qs.features, fw.builder.AnalyzePosts(qs.posts)) {
			t.Errorf("slice %s: memoized features differ from a fresh analysis", sig)
		}
		if qs.graph != nil && !reflect.DeepEqual(qs.graph, sai.BuildGroupGraph(qs.posts)) {
			t.Errorf("slice %s: memoized co-occurrence graph differs from a fresh build", sig)
		}
	}
}

// hidingSearcher wraps a Searcher and drops one post, chosen by ID, from
// every page — a backend that stops returning a post it listed before.
type hidingSearcher struct {
	inner social.Searcher
	hide  atomic.Pointer[string]
}

func (h *hidingSearcher) Search(ctx context.Context, q social.Query) (*social.Page, error) {
	page, err := h.inner.Search(ctx, q)
	id := h.hide.Load()
	if err != nil || id == nil {
		return page, err
	}
	out := *page
	out.Posts = nil
	for _, p := range page.Posts {
		if p.ID != *id {
			out.Posts = append(out.Posts, p)
		}
	}
	return &out, nil
}

// soleTagPost returns the ID of a post whose only hashtag is tag and
// which a memoized keyword-group slice (one with a co-occurrence graph)
// lists, so that hiding it forces that group's graph to be rebuilt.
func soleTagPost(t *testing.T, rc *ResultCache, tag string) string {
	t.Helper()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, qs := range rc.slices {
		if qs.graph == nil {
			continue
		}
		for _, p := range qs.posts {
			if tags := p.Hashtags(); len(tags) == 1 && tags[0] == tag {
				return p.ID
			}
		}
	}
	t.Fatalf("no memoized group listing holds a post tagged only #%s", tag)
	return ""
}

// TestRunSocialDeltaAnalyzesOnlyNewPosts pins the per-post cost model:
// a warm run after a k-post delta tokenizes exactly the posts new to
// each re-drained listing — not the listings themselves, whose other
// posts keep their memoized features.
func TestRunSocialDeltaAnalyzesOnlyNewPosts(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	in := SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	ctx := context.Background()
	rc := NewResultCache(store)

	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		t.Fatal(err)
	}
	// A cold cache analyzes every listed post once.
	listed := 0
	before := make(map[string]*querySlice, len(rc.slices))
	for sig, qs := range rc.slices {
		listed += len(qs.posts)
		before[sig] = qs
	}
	cold := rc.tokenized.Load()
	if cold != int64(listed) {
		t.Fatalf("cold run analyzed %d posts, want the %d listed", cold, listed)
	}

	const k = 5
	var delta []*social.Post
	for i := 0; i < k; i++ {
		delta = append(delta, deltaPost(60+i, "fresh #chiptuning remap results"))
	}
	if err := store.Add(delta...); err != nil {
		t.Fatal(err)
	}
	if rc.Invalidate(delta...) == 0 {
		t.Fatal("delta invalidated nothing; test is vacuous")
	}
	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		t.Fatal(err)
	}

	want, redrained, relisted := 0, 0, 0
	for sig, qs := range rc.slices {
		old := before[sig]
		if old == qs {
			continue // fresh memo, not re-drained
		}
		redrained++
		relisted += len(qs.posts)
		held := make(map[*social.Post]bool)
		if old != nil {
			for _, p := range old.posts {
				held[p] = true
			}
		}
		for _, p := range qs.posts {
			if !held[p] {
				want++
			}
		}
	}
	got := rc.tokenized.Load() - cold
	if redrained == 0 || want == 0 {
		t.Fatalf("delta re-drained %d listings with %d new posts; test is vacuous", redrained, want)
	}
	if got != int64(want) {
		t.Errorf("delta run analyzed %d posts, want the %d new to %d re-drained listings", got, want, redrained)
	}
	if want > k*redrained || got >= int64(relisted) {
		t.Errorf("delta run analyzed %d posts for a %d-post delta over %d re-drained listings of %d posts",
			got, k, redrained, relisted)
	}
}

// TestRunSocialDeltaSkipsFreshSlices pins the incremental cost model:
// once warm, a run after an irrelevant delta touches the backend zero
// times, and a single-topic delta re-drains only the affected listings.
func TestRunSocialDeltaSkipsFreshSlices(t *testing.T) {
	store, err := social.DefaultStore(5)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingSearcher{inner: store}
	fw, err := New(Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	threats := []*tara.ThreatScenario{ecmThreat()}
	in := SocialInput{Threats: threats}
	ctx := context.Background()
	rc := NewResultCache(counting)

	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		t.Fatal(err)
	}
	warm := counting.calls.Load()

	// No invalidation → no backend traffic at all.
	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != warm {
		t.Errorf("fresh rerun reached the backend %d times", counting.calls.Load()-warm)
	}

	// An irrelevant post invalidates nothing.
	noise := deltaPost(50, "plain #fillerchatter noise")
	if err := store.Add(noise); err != nil {
		t.Fatal(err)
	}
	if n := rc.Invalidate(noise); n != 0 {
		t.Errorf("irrelevant post dropped %d listings", n)
	}
	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != warm {
		t.Errorf("irrelevant delta reached the backend %d times", counting.calls.Load()-warm)
	}

	// A single-topic delta re-drains only the affected listings, not
	// every keyword group.
	hit := deltaPost(51, "new #gpsblocker sleeve install")
	if err := store.Add(hit); err != nil {
		t.Fatal(err)
	}
	dropped := rc.Invalidate(hit)
	if dropped == 0 {
		t.Fatal("topical post invalidated nothing")
	}
	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		t.Fatal(err)
	}
	redrains := counting.calls.Load() - warm
	groups := len(fw.Keywords().Groups())
	if redrains == 0 || redrains >= warm {
		t.Errorf("single-topic delta triggered %d backend calls (warm run took %d, %d groups)",
			redrains, warm, groups)
	}
}

func ids(posts []*social.Post) []string {
	out := make([]string, len(posts))
	for i, p := range posts {
		out[i] = p.ID
	}
	return out
}
