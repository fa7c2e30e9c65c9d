package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// TestRunSocialDeltaMatchFallbacksEqualCold pins the cases where a
// delta run cannot match a slice's previous posts by pointer: memos
// restored over copies of the store's posts, a federated Multi that
// re-drains fresh copies, and the poisoning defence dropping a post it
// kept before. Each must equal a cold run and tokenize exactly what an
// ID-keyed oracle says: posts new to a replaced listing, plus the rest
// of a listing whose graph cannot be extended. A walk that matched only
// by pointer would re-tokenize whole listings and fail the count.
func TestRunSocialDeltaMatchFallbacksEqualCold(t *testing.T) {
	in := SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	topical := func(from, n int) []*social.Post {
		var out []*social.Post
		for i := from; i < from+n; i++ {
			text := "fresh #chiptuning remap results"
			if i%2 == 0 {
				text = "new #gpsblocker sleeve install"
			}
			out = append(out, deltaPost(i, text))
		}
		return out
	}

	t.Run("restored-by-id", func(t *testing.T) {
		store := smallStore(t, 3)
		fw, rc := deltaSetup(t, store, in)
		// Memos restored over copies of the store's posts hold no
		// pointer a re-drain of the store lists.
		copies := func(id string) *social.Post {
			p := store.Post(id)
			if p == nil {
				return nil
			}
			cp := *p
			return &cp
		}
		fills, memos := rc.ExportFills(), rc.ExportMemos()
		rc = NewResultCache(store)
		if n := rc.ImportFills(fills, memos, copies); n != len(fills) || len(rc.slices) != len(memos) {
			t.Fatalf("restored %d of %d fills, %d of %d memos", n, len(fills), len(rc.slices), len(memos))
		}
		delta := topical(100, 6)
		if err := store.Add(delta...); err != nil {
			t.Fatal(err)
		}
		checkDelta(t, fw, rc, in, func() int { return rc.InvalidateProfiles(social.ProfilePosts(delta)) })
	})

	t.Run("federated", func(t *testing.T) {
		a, b := smallStore(t, 4), social.NewStore()
		multi, err := social.NewMulti(
			social.PlatformSource{Name: "alpha", Searcher: a},
			social.PlatformSource{Name: "beta", Searcher: b})
		if err != nil {
			t.Fatal(err)
		}
		fw, rc := deltaSetup(t, multi, in)
		delta := topical(200, 6)
		if err := b.Add(delta...); err != nil {
			t.Fatal(err)
		}
		checkDelta(t, fw, rc, in, func() int { return rc.InvalidateProfiles(social.ProfilePosts(delta)) })
	})

	t.Run("filter-drops-kept-post", func(t *testing.T) {
		store := smallStore(t, 5)
		in := in
		in.FilterInauthentic = true
		fw, rc := deltaSetup(t, store, in)
		// Three copies of one text are kept; a fourth, older copy pushes
		// the newest one out of every listing that holds them.
		campaign := func(hours ...int) []*social.Post {
			var out []*social.Post
			for _, h := range hours {
				out = append(out, &social.Post{
					ID:        fmt.Sprintf("campaign-%02d", h),
					Author:    fmt.Sprintf("campaigner%d", h),
					Text:      "#chiptuning remap blast campaign",
					CreatedAt: time.Date(2023, 4, 2, h, 0, 0, 0, time.UTC),
					Region:    social.RegionEurope,
					Metrics:   social.Metrics{Views: 300, Likes: 12},
				})
			}
			return out
		}
		first := campaign(10, 11, 12)
		if err := store.Add(first...); err != nil {
			t.Fatal(err)
		}
		checkDelta(t, fw, rc, in, func() int { return rc.PatchProfiles(social.ProfilePosts(first)) })
		late := campaign(9)
		if err := store.Add(late...); err != nil {
			t.Fatal(err)
		}
		if dropped := checkDelta(t, fw, rc, in, func() int { return rc.PatchProfiles(social.ProfilePosts(late)) }); !dropped {
			t.Fatal("no listing lost a post it kept before; the case is vacuous")
		}
	})
}

// TestRunSocialDeltaLearnsKeywordsMidStream changes the learned keywords
// while on-topic batches are still queued: the run that learns a new
// tag drains its new query cold from a store that already holds posts
// no fill has been patched with yet. Those posts then arrive and patch
// every fill, the new one included (which already holds them), and the
// result must equal a cold run over the same posts.
func TestRunSocialDeltaLearnsKeywordsMidStream(t *testing.T) {
	ctx := context.Background()
	store := smallStore(t, 6)
	in := SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	fw, rc := deltaSetup(t, store, in)
	const tag = "zzflashkit"
	batch := func(from, n int) []*social.Post {
		var out []*social.Post
		for i := from; i < from+n; i++ {
			out = append(out, deltaPost(i, fmt.Sprintf("flashed #chiptuning #excavatortuning #speedlimiteroff with #%s gains", tag)))
		}
		return out
	}
	learned := func(res *SocialResult) bool {
		for _, tags := range res.Learned {
			if slices.Contains(tags, tag) {
				return true
			}
		}
		return false
	}
	before, err := fw.RunSocialDelta(ctx, in, rc)
	if err != nil {
		t.Fatal(err)
	}
	if learned(before) {
		t.Fatalf("#%s learned before any post carried it", tag)
	}

	// Both batches are stored; only the first has reached the cache.
	taught, queued := batch(300, 30), batch(400, 8)
	if err := store.Add(taught...); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(queued...); err != nil {
		t.Fatal(err)
	}
	rc.PatchProfiles(social.ProfilePosts(taught))
	mid, err := fw.RunSocialDelta(ctx, in, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !learned(mid) {
		t.Fatalf("#%s not learned after %d posts carried it: %v", tag, len(taught), mid.Learned)
	}
	// The learned query's cold drain already lists the queued posts.
	q := tagQuery([]string{tag}, in)
	q.AnyTags = nil
	for _, g := range mid.Keywords.Groups() {
		if slices.Contains(g.AllTags(), tag) {
			q.AnyTags = g.AllTags()
		}
	}
	fill := rc.qc.lookup(cacheKey(q.Canonical()))
	if fill == nil {
		t.Fatal("the learned query has no fill")
	}
	for _, p := range queued {
		if !slices.ContainsFunc(fill.posts, func(x *social.Post) bool { return x.ID == p.ID }) {
			t.Fatalf("the learned query's drain misses queued post %s", p.ID)
		}
	}

	rc.PatchProfiles(social.ProfilePosts(queued))
	if rc.qc.lookup(cacheKey(q.Canonical())) != fill {
		t.Error("patching posts the learned fill already holds replaced it")
	}
	after, err := fw.RunSocialDelta(ctx, in, rc)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fw.RunSocial(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, cold) {
		t.Fatalf("delta result after the queued batch diverged from a cold run:\n%+v\n%+v", after.Index.Entries, cold.Index.Entries)
	}
	checkMemos(t, fw, rc)
}

// smallStore holds every sixth post of a generated reference corpus:
// cheap cold reference runs, every topic still populated.
func smallStore(t *testing.T, seed int64) *social.Store {
	t.Helper()
	base, err := social.Generate(social.DefaultCorpusSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	store := social.NewStore()
	for i := 0; i < len(base); i += 6 {
		if err := store.Add(base[i]); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// deltaSetup builds a framework over a backend and warms a result cache
// with one delta run.
func deltaSetup(t *testing.T, backend social.Searcher, in SocialInput) (*Framework, *ResultCache) {
	t.Helper()
	fw, err := New(Config{Searcher: backend, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc := NewResultCache(backend)
	if _, err := fw.RunSocialDelta(context.Background(), in, rc); err != nil {
		t.Fatal(err)
	}
	return fw, rc
}

// checkDelta applies a delta to the cache, runs the delta workflow and
// checks it against a cold run and the tokenization oracle. It reports
// whether a replaced listing lost a post its previous slice held.
func checkDelta(t *testing.T, fw *Framework, rc *ResultCache, in SocialInput, apply func() int) (dropped bool) {
	t.Helper()
	ctx := context.Background()
	before := make(map[string]*querySlice, len(rc.slices))
	for sig, qs := range rc.slices {
		before[sig] = qs
	}
	if apply() == 0 {
		t.Fatal("delta matched no listing; the case is vacuous")
	}
	base := rc.tokenized.Load()
	warm, err := fw.RunSocialDelta(ctx, in, rc)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fw.RunSocial(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("delta result diverged from a cold run:\n%+v\n%+v", warm.Index.Entries, cold.Index.Entries)
	}
	checkMemos(t, fw, rc)

	want, reused := 0, 0
	for sig, qs := range rc.slices {
		prev := before[sig]
		if prev == qs {
			continue
		}
		held := make(map[string]bool)
		if prev != nil {
			for _, p := range prev.posts {
				held[p.ID] = true
			}
		}
		kept := 0
		for _, p := range qs.posts {
			if held[p.ID] {
				kept++
			}
		}
		want += len(qs.posts) - kept
		if qs.graph != nil && (prev == nil || prev.graph == nil || kept != len(prev.posts)) {
			want += kept
		}
		reused += kept
		dropped = dropped || kept < len(held)
	}
	if reused == 0 {
		t.Fatal("no replaced listing held a previous post; the case is vacuous")
	}
	if got := rc.tokenized.Load() - base; got != int64(want) {
		t.Fatalf("delta run tokenized %d posts, want %d", got, want)
	}
	return dropped
}
