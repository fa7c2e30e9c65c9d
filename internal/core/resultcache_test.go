package core

import (
	"context"
	"fmt"
	"math/rand"
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

// TestQueryCacheInvalidationIsExact: a delta leaves the listings it
// cannot match untouched and brings every listing it matches up to
// date. A cache over the store the posts went into patches the listing
// — served without a backend query, equal to a fresh drain of the
// store (same IDs, same order), even for a post dated before the whole
// listing — and a repeated delivery changes nothing. A cache over any
// other backend drops the listing and re-drains it.
func TestQueryCacheInvalidationIsExact(t *testing.T) {
	store := social.NewStore()
	if err := store.Add(
		&social.Post{ID: "a", Author: "u", Text: "#dpfdelete on the excavator", CreatedAt: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC), Region: social.RegionEurope, Metrics: social.Metrics{Views: 1}},
		&social.Post{ID: "b", Author: "u", Text: "#chiptuning the car", CreatedAt: time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC), Region: social.RegionEurope, Metrics: social.Metrics{Views: 1}},
	); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tags := [][]string{{"dpfdelete"}, {"chiptuning"}}
	newCache := func() (*QueryCache, *countingSearcher) {
		counting := &countingSearcher{inner: store}
		cache := NewQueryCache(counting)
		for _, tg := range tags {
			if _, err := cache.Search(ctx, social.Query{AnyTags: tg}); err != nil {
				t.Fatal(err)
			}
		}
		if cache.Len() != 2 {
			t.Fatalf("cache holds %d listings, want 2", cache.Len())
		}
		return cache, counting
	}
	listing := func(s social.Searcher, tg []string) []string {
		t.Helper()
		posts, err := social.SearchAll(ctx, s, social.Query{AnyTags: tg, MaxResults: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ids(posts)
	}
	patched, patchedCalls := newCache()
	dropped, droppedCalls := newCache()

	// A post that matches neither query leaves both listings valid.
	neutral := social.ProfilePosts([]*social.Post{deltaPost(0, "#egrremoval chatter")})
	if err := store.Add(neutral[0].Post()); err != nil {
		t.Fatal(err)
	}
	if n := patched.PatchProfiles(neutral); n != 0 || patched.Len() != 2 {
		t.Errorf("neutral post patched %d listings (len %d)", n, patched.Len())
	}
	if n := dropped.InvalidateProfiles(neutral); n != 0 || dropped.Len() != 2 {
		t.Errorf("neutral post dropped %d listings (len %d)", n, dropped.Len())
	}

	// dpfdelete posts — one dated after the listing, one before it —
	// match exactly the dpfdelete listing.
	hits := social.ProfilePosts([]*social.Post{
		deltaPost(1, "new #dpfdelete kit"),
		{ID: "early", Author: "u", Text: "old #dpfdelete story", CreatedAt: time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC), Region: social.RegionEurope, Metrics: social.Metrics{Views: 1}},
	})
	if err := store.Add(hits[0].Post(), hits[1].Post()); err != nil {
		t.Fatal(err)
	}
	want := listing(store, tags[0])
	if len(want) != 3 {
		t.Fatalf("store lists %v, want 3 dpfdelete posts", want)
	}

	calls := patchedCalls.calls.Load()
	if n := patched.PatchProfiles(hits); n != 1 || patched.Len() != 2 {
		t.Errorf("matching posts patched %d listings (len %d), want 1 (len 2)", n, patched.Len())
	}
	before := patched.lookup(cacheKey(social.Query{AnyTags: tags[0]}.Canonical()))
	if n := patched.PatchProfiles(hits); n != 1 {
		t.Errorf("a repeated delivery matched %d listings, want 1", n)
	}
	if after := patched.lookup(cacheKey(social.Query{AnyTags: tags[0]}.Canonical())); after != before {
		t.Error("a repeated delivery replaced the fill, though it added nothing")
	}
	if got := listing(patched, tags[0]); !reflect.DeepEqual(got, want) {
		t.Errorf("patched listing %v, want the store's %v", got, want)
	}
	if got := listing(patched, tags[1]); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("unmatched listing %v, want [b]", got)
	}
	if n := patchedCalls.calls.Load() - calls; n != 0 {
		t.Errorf("patched listings reached the backend %d times", n)
	}

	if n := dropped.InvalidateProfiles(hits); n != 1 || dropped.Len() != 1 {
		t.Errorf("matching posts dropped %d listings (len %d), want 1 (len 1)", n, dropped.Len())
	}
	calls = droppedCalls.calls.Load()
	if got := listing(dropped, tags[0]); !reflect.DeepEqual(got, want) {
		t.Errorf("re-drained listing %v, want the store's %v", got, want)
	}
	if droppedCalls.calls.Load() == calls {
		t.Error("a dropped listing was served without a re-drain")
	}
}

// TestQueryCachePatchMatchesFreshDrain is the seeded property test of
// patching: a random stream of on-topic, filler and backdated batches
// is ingested into a store and patched into a cache over it — some
// batches delivered twice, and some held already by a cold drain of a
// query first asked after the batch was stored, before its delivery.
// After every batch, every cached listing (queries mixing tags,
// must-terms, Region and Since/Until windows) must equal a fresh drain
// of the store, same IDs in the same order, and only never-drained
// queries may reach the backend.
func TestQueryCachePatchMatchesFreshDrain(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := social.NewStoreShards(4)
		day := func(d int) time.Time { return time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d) }
		tagsOf := []string{"dpfdelete", "chiptuning", "remap", "gpsblocker", "fillerchatter"}
		words := []string{"excavator", "truck", "kit", "cheap", "install"}
		regions := []social.Region{social.RegionEurope, social.RegionNorthAmerica, social.RegionAsiaPacific}
		seq := 0
		post := func(text string, at time.Time) *social.Post {
			seq++
			return &social.Post{
				ID:        fmt.Sprintf("p-%04d", seq),
				Author:    "u",
				Text:      text,
				CreatedAt: at.Add(time.Duration(rng.Intn(86400)) * time.Second),
				Region:    regions[rng.Intn(len(regions))],
				Metrics:   social.Metrics{Views: 1},
			}
		}
		onTopic := func(at time.Time) *social.Post {
			text := words[rng.Intn(len(words))] + " #" + tagsOf[rng.Intn(4)]
			if rng.Intn(2) == 0 {
				text += " #" + tagsOf[rng.Intn(4)] + " " + words[rng.Intn(len(words))]
			}
			return post(text, at)
		}
		var base []*social.Post
		for i := 0; i < 120; i++ {
			base = append(base, onTopic(day(20+rng.Intn(60))))
		}
		if err := store.Add(base...); err != nil {
			t.Fatal(err)
		}

		queries := []social.Query{
			{AnyTags: []string{"dpfdelete"}},
			{AnyTags: []string{"chiptuning", "remap"}},
			{AnyTags: []string{"chiptuning"}, MustTerms: []string{"excavator"}},
			{MustTerms: []string{"truck"}},
			{AnyTags: []string{"dpfdelete", "gpsblocker"}, Region: social.RegionEurope},
			{AnyTags: []string{"remap"}, Since: day(40)},
			{MustTerms: []string{"kit"}, Until: day(50)},
			{AnyTags: []string{"dpfdelete", "chiptuning"}, Since: day(30), Until: day(70), Region: social.RegionNorthAmerica},
		}
		// Asked only after a batch is stored: their cold drains hold
		// that batch's posts before its delivery.
		late := []social.Query{
			{AnyTags: []string{"gpsblocker"}},
			{AnyTags: []string{"remap", "dpfdelete"}, MustTerms: []string{"install"}},
			{AnyTags: []string{"chiptuning"}, Since: day(10), Until: day(60)},
		}
		counting := &countingSearcher{inner: store}
		cache := NewQueryCache(counting)
		ctx := context.Background()
		check := func(step string) {
			t.Helper()
			calls := counting.calls.Load()
			for qi, q := range queries {
				got, err := social.SearchAll(ctx, cache, social.Query{AnyTags: q.AnyTags, MustTerms: q.MustTerms, Region: q.Region, Since: q.Since, Until: q.Until, MaxResults: 7})
				if err != nil {
					t.Fatal(err)
				}
				want, err := social.SearchAll(ctx, store, social.Query{AnyTags: q.AnyTags, MustTerms: q.MustTerms, Region: q.Region, Since: q.Since, Until: q.Until, MaxResults: social.MaxPageSize})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ids(got), ids(want)) {
					t.Fatalf("seed %d, %s: query %d lists %v, a fresh drain %v", seed, step, qi, ids(got), ids(want))
				}
			}
			if n := counting.calls.Load() - calls; n != 0 {
				t.Fatalf("seed %d, %s: cached listings reached the backend %d times", seed, step, n)
			}
		}
		for _, q := range queries {
			if _, err := social.SearchAll(ctx, cache, q); err != nil {
				t.Fatal(err)
			}
		}
		check("cold")

		patched := 0
		for step := 0; step < 40; step++ {
			var batch []*social.Post
			kind := rng.Intn(3)
			for i := 0; i < 1+rng.Intn(6); i++ {
				switch kind {
				case 0: // on-topic, inside the seeded span
					batch = append(batch, onTopic(day(20+rng.Intn(60))))
				case 1: // filler
					batch = append(batch, post("idle #fillerchatter "+words[rng.Intn(len(words))], day(20+rng.Intn(60))))
				default: // backdated, before every seeded post
					batch = append(batch, onTopic(day(rng.Intn(20))))
				}
			}
			if err := store.Add(batch...); err != nil {
				t.Fatal(err)
			}
			if len(late) > 0 && rng.Intn(4) == 0 {
				q := late[0]
				late, queries = late[1:], append(queries, q)
				if _, err := social.SearchAll(ctx, cache, q); err != nil {
					t.Fatal(err)
				}
			}
			// The feed delivers a batch sorted; a restart's catch-up
			// delta need not be.
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			patched += cache.PatchProfiles(social.ProfilePosts(batch))
			if rng.Intn(5) == 0 {
				cache.PatchProfiles(social.ProfilePosts(batch))
			}
			check(fmt.Sprintf("step %d", step))
		}
		if patched == 0 || len(late) == 3 {
			t.Fatalf("seed %d: %d patches, %d late queries asked; the property test is vacuous", seed, patched, 3-len(late))
		}
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
			if n := rc.InvalidateProfiles(social.ProfilePosts(delta)); n == 0 {
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
// each patched or re-drained listing — not the listings themselves,
// whose other posts keep their memoized features.
func TestRunSocialDeltaAnalyzesOnlyNewPosts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(*ResultCache, []*social.PostProfile) int
	}{
		{"invalidate", (*ResultCache).InvalidateProfiles},
		{"patch", (*ResultCache).PatchProfiles},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			if tc.apply(rc, social.ProfilePosts(delta)) == 0 {
				t.Fatal("delta matched nothing; test is vacuous")
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
				t.Fatalf("delta replaced %d listings with %d new posts; test is vacuous", redrained, want)
			}
			if got != int64(want) {
				t.Errorf("delta run analyzed %d posts, want the %d new to %d replaced listings", got, want, redrained)
			}
			if want > k*redrained || got >= int64(relisted) {
				t.Errorf("delta run analyzed %d posts for a %d-post delta over %d replaced listings of %d posts",
					got, k, redrained, relisted)
			}
		})
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
	if n := rc.InvalidateProfiles(social.ProfilePosts([]*social.Post{noise})); n != 0 {
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
	dropped := rc.InvalidateProfiles(social.ProfilePosts([]*social.Post{hit}))
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
