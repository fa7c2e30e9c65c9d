package social

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/nlp"
)

func ts(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 12, 0, 0, 0, time.UTC)
}

func samplePosts() []*Post {
	return []*Post{
		{
			ID: "p1", Author: "u1", Region: RegionEurope, CreatedAt: ts(2021, 3, 1),
			Text:    "best #dpfdelete kit on my excavator, huge gains",
			Metrics: Metrics{Views: 1000, Likes: 50, Reposts: 5, Replies: 3},
		},
		{
			ID: "p2", Author: "u2", Region: RegionNorthAmerica, CreatedAt: ts(2022, 5, 1),
			Text:    "flashed through the obd port — #chiptuning on my car",
			Metrics: Metrics{Views: 800, Likes: 20, Reposts: 2, Replies: 1},
		},
		{
			ID: "p3", Author: "u3", Region: RegionEurope, CreatedAt: ts(2022, 7, 1),
			Text:    "#egrremoval done on the tractor, great savings",
			Metrics: Metrics{Views: 500, Likes: 10, Reposts: 1, Replies: 0},
		},
		{
			ID: "p4", Author: "u4", Region: RegionEurope, CreatedAt: ts(2023, 1, 10),
			Text:    "#dpfdelete on my excavator ended in limp mode, regret it",
			Metrics: Metrics{Views: 300, Likes: 5, Reposts: 0, Replies: 8},
		},
	}
}

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if err := s.Add(samplePosts()...); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreAddValidation(t *testing.T) {
	s := NewStore()
	bad := []*Post{
		{ID: "", Text: "x", CreatedAt: ts(2022, 1, 1)},
		{ID: "x", Text: "", CreatedAt: ts(2022, 1, 1)},
		{ID: "x", Text: "y"},
		{ID: "x", Text: "y", CreatedAt: ts(2022, 1, 1), Metrics: Metrics{Views: -1}},
	}
	for i, p := range bad {
		if err := s.Add(p); err == nil {
			t.Errorf("case %d: Add(%+v) succeeded, want error", i, p)
		}
	}
	// A nil post (a JSON null from remote ingest) errors instead of
	// panicking.
	if err := s.Add(nil); err == nil {
		t.Error("nil post accepted")
	}
	ok := &Post{ID: "x", Text: "y", CreatedAt: ts(2022, 1, 1)}
	if err := s.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&Post{ID: "x", Text: "z", CreatedAt: ts(2022, 1, 2)}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if s.Len() != 1 {
		t.Errorf("Len() = %d, want 1", s.Len())
	}
	if s.Post("x") == nil || s.Post("nope") != nil {
		t.Error("Post lookup wrong")
	}
}

func TestSearchByTag(t *testing.T) {
	s := newTestStore(t)
	page, err := s.Search(context.Background(), Query{AnyTags: []string{"dpfdelete"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Posts) != 2 || page.TotalMatches != 2 {
		t.Fatalf("tag search returned %d posts (total %d), want 2", len(page.Posts), page.TotalMatches)
	}
	// Chronological order.
	if page.Posts[0].ID != "p1" || page.Posts[1].ID != "p4" {
		t.Errorf("order = %s,%s want p1,p4", page.Posts[0].ID, page.Posts[1].ID)
	}
	// '#'-prefixed and differently-cased tags normalize.
	page2, err := s.Search(context.Background(), Query{AnyTags: []string{"#DPFdelete"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Posts) != 2 {
		t.Errorf("normalized tag search returned %d posts, want 2", len(page2.Posts))
	}
}

// TestSearchRepeatedHashtag: a post repeating a hashtag must surface
// once in tag queries. Regression: the posting list used to carry one
// entry per occurrence, relying on query-time dedup that the k-way
// merge's single-list fast path skipped.
func TestSearchRepeatedHashtag(t *testing.T) {
	s := NewStore()
	if err := s.Add(&Post{
		ID: "rep", Author: "u", CreatedAt: ts(2022, 6, 1),
		Text:    "#dpfdelete twice in one post #dpfdelete",
		Metrics: Metrics{Views: 1},
	}); err != nil {
		t.Fatal(err)
	}
	page, err := s.Search(context.Background(), Query{AnyTags: []string{"dpfdelete"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(page.Posts); len(got) != 1 || page.TotalMatches != 1 {
		t.Fatalf("repeated-hashtag search = %v (total %d), want [rep] once", got, page.TotalMatches)
	}
}

func TestSearchMustTerms(t *testing.T) {
	s := newTestStore(t)
	page, err := s.Search(context.Background(), Query{
		AnyTags:   []string{"dpfdelete", "egrremoval"},
		MustTerms: []string{"excavator"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Posts) != 2 {
		t.Fatalf("must-term search returned %d posts, want 2", len(page.Posts))
	}
	for _, p := range page.Posts {
		if !p.Terms()["excavator"] {
			t.Errorf("post %s lacks must term", p.ID)
		}
	}
}

func TestSearchRegionAndWindow(t *testing.T) {
	s := newTestStore(t)
	page, err := s.Search(context.Background(), Query{
		Region: RegionEurope,
		Since:  ts(2022, 1, 1),
		Until:  ts(2023, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Posts) != 1 || page.Posts[0].ID != "p3" {
		t.Fatalf("windowed region search = %v, want [p3]", ids(page.Posts))
	}
	// Until is exclusive: a post exactly at the bound is excluded.
	pageEdge, err := s.Search(context.Background(), Query{Until: ts(2021, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pageEdge.Posts) != 0 {
		t.Errorf("exclusive until violated: %v", ids(pageEdge.Posts))
	}
}

func TestSearchPagination(t *testing.T) {
	s := newTestStore(t)
	var all []*Post
	q := Query{MaxResults: 2}
	for {
		page, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page.Posts...)
		if page.NextToken == "" {
			break
		}
		q.PageToken = page.NextToken
	}
	if len(all) != 4 {
		t.Fatalf("pagination collected %d posts, want 4", len(all))
	}
	// SearchAll agrees.
	got, err := SearchAll(context.Background(), s, Query{MaxResults: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("SearchAll returned %d posts, want 4", len(got))
	}
}

func TestSearchBadPageToken(t *testing.T) {
	s := newTestStore(t)
	// Malformed keyset tokens are rejected outright; "k5" lacks the ID
	// separator and "k5.!!" carries invalid base64.
	for _, tok := range []string{"garbage", "k", "k5", "k5.!!", "kx.cDE", "5", "K5.cDE"} {
		if _, err := s.Search(context.Background(), Query{PageToken: tok}); err == nil {
			t.Errorf("bad page token %q accepted", tok)
		}
	}
	// The retired offset tokens fail with a deprecation hint.
	_, err := s.Search(context.Background(), Query{PageToken: "o2"})
	if err == nil || !strings.Contains(err.Error(), "no longer supported") {
		t.Errorf("offset token not reported as deprecated: %v", err)
	}
	// A token the store itself emitted resumes the listing.
	first, err := s.Search(context.Background(), Query{MaxResults: 2})
	if err != nil || first.NextToken == "" {
		t.Fatalf("first page: %v", err)
	}
	rest, err := s.Search(context.Background(), Query{MaxResults: 2, PageToken: first.NextToken})
	if err != nil {
		t.Fatalf("valid keyset token rejected: %v", err)
	}
	if got := ids(rest.Posts); len(got) != 2 || got[0] != "p3" || got[1] != "p4" {
		t.Errorf("resumed page = %v, want [p3 p4]", got)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	for _, c := range []Cursor{
		{CreatedAt: ts(2022, 5, 1), ID: "p2"},
		{CreatedAt: ts(2022, 5, 1), ID: "platform:with/odd+chars"},
		{CreatedAt: ts(2022, 5, 1)}, // empty ID: sorts before same-instant posts
	} {
		back, err := ParseCursor(EncodeCursor(c))
		if err != nil {
			t.Fatalf("round trip %+v: %v", c, err)
		}
		if !back.CreatedAt.Equal(c.CreatedAt) || back.ID != c.ID {
			t.Errorf("round trip %+v → %+v", c, back)
		}
	}
	// Empty-ID cursors admit same-instant posts (the federated resume
	// path relies on this).
	c := Cursor{CreatedAt: ts(2022, 5, 1)}
	if !c.Before(&Post{ID: "a", CreatedAt: ts(2022, 5, 1)}) {
		t.Error("empty-ID cursor excluded a same-instant post")
	}
	if c.Before(&Post{ID: "a", CreatedAt: ts(2022, 4, 30)}) {
		t.Error("cursor admitted an earlier post")
	}
}

func TestSearchMustTermsWithoutTags(t *testing.T) {
	s := newTestStore(t)
	// Term-only queries go through the inverted term index.
	page, err := s.Search(context.Background(), Query{MustTerms: []string{"excavator"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(page.Posts); len(got) != 2 || got[0] != "p1" || got[1] != "p4" {
		t.Fatalf("term-index search = %v, want [p1 p4]", got)
	}
	// Multi-term intersection, normalization of '#' and case included.
	page, err = s.Search(context.Background(), Query{MustTerms: []string{"#Excavator", "regret"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(page.Posts); len(got) != 1 || got[0] != "p4" {
		t.Fatalf("intersection = %v, want [p4]", got)
	}
	// A term absent from the corpus yields an empty page, not an error.
	page, err = s.Search(context.Background(), Query{MustTerms: []string{"nonexistentterm"}})
	if err != nil || len(page.Posts) != 0 || page.TotalMatches != 0 {
		t.Fatalf("absent term: page %+v err %v", page, err)
	}
	// Term filters combine with region and window filters.
	page, err = s.Search(context.Background(), Query{
		MustTerms: []string{"excavator"},
		Region:    RegionEurope,
		Since:     ts(2022, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(page.Posts); len(got) != 1 || got[0] != "p4" {
		t.Fatalf("filtered term search = %v, want [p4]", got)
	}
}

// TestTermIndexMatchesScan pins the inverted-index fast path to the
// semantics of a naive corpus scan on the reference corpus.
func TestTermIndexMatchesScan(t *testing.T) {
	store, err := DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	all, err := SearchAll(context.Background(), store, Query{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{MustTerms: []string{"excavator"}},
		{MustTerms: []string{"obd"}},
		{MustTerms: []string{"excavator", "obd"}},
		{MustTerms: []string{"excavator", "limp", "mode"}},
		{MustTerms: []string{"tractor"}, Region: RegionEurope},
		{MustTerms: []string{"truck"}, Since: ts(2022, 1, 1), Until: ts(2023, 1, 1)},
	}
	for _, q := range queries {
		got, err := SearchAll(context.Background(), store, q)
		if err != nil {
			t.Fatalf("query %+v: %v", q.MustTerms, err)
		}
		var want []string
		for _, p := range all {
			if q.Region != "" && p.Region != q.Region {
				continue
			}
			if !q.Since.IsZero() && p.CreatedAt.Before(q.Since) {
				continue
			}
			if !q.Until.IsZero() && !p.CreatedAt.Before(q.Until) {
				continue
			}
			terms := p.Terms()
			ok := true
			for _, m := range q.MustTerms {
				if !terms[m] {
					ok = false
					break
				}
			}
			if ok {
				want = append(want, p.ID)
			}
		}
		if len(want) == 0 {
			t.Fatalf("query %v matches nothing in the reference corpus; test is vacuous", q.MustTerms)
		}
		gotIDs := ids(got)
		if len(gotIDs) != len(want) {
			t.Fatalf("query %v: index returned %d posts, scan %d", q.MustTerms, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("query %v: post %d = %s, scan says %s", q.MustTerms, i, gotIDs[i], want[i])
			}
		}
	}
}

// TestMatchesPostAgreesWithSearch pins the invalidation predicate to
// Search membership over the reference corpus: the result cache's
// exactness guarantee holds only while MatchesPost and matchLocked
// implement the same filters, so a filter added to one but not the
// other must fail here.
func TestMatchesPostAgreesWithSearch(t *testing.T) {
	store, err := DefaultStore(13)
	if err != nil {
		t.Fatal(err)
	}
	all, err := SearchAll(context.Background(), store, Query{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{AnyTags: []string{"dpfdelete", "chiptuning"}},
		{AnyTags: []string{"#DPFdelete"}, MustTerms: []string{"excavator"}},
		{MustTerms: []string{"excavator", "limp"}},
		{AnyTags: []string{"egrremoval"}, Region: RegionEurope},
		{AnyTags: []string{"gpsblocker"}, Since: ts(2022, 1, 1), Until: ts(2023, 1, 1)},
		{Region: RegionNorthAmerica, Since: ts(2022, 6, 1)},
	}
	for _, q := range queries {
		matched, err := SearchAll(context.Background(), store, q)
		if err != nil {
			t.Fatal(err)
		}
		inResults := make(map[string]bool, len(matched))
		for _, p := range matched {
			inResults[p.ID] = true
		}
		if len(matched) == 0 {
			t.Fatalf("query %+v matches nothing; test is vacuous", q)
		}
		for _, p := range all {
			if got := q.MatchesPost(p); got != inResults[p.ID] {
				t.Errorf("query %+v post %s: MatchesPost=%v, Search membership=%v",
					q, p.ID, got, inResults[p.ID])
			}
		}
	}
}

func TestSearchContextCancelled(t *testing.T) {
	s := newTestStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Search(ctx, Query{}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestPostDerivations(t *testing.T) {
	p := samplePosts()[0]
	tags := p.Hashtags()
	if len(tags) != 1 || tags[0] != "dpfdelete" {
		t.Errorf("Hashtags() = %v", tags)
	}
	if !p.Terms()["gains"] || !p.Terms()["dpfdelete"] {
		t.Errorf("Terms() missing expected entries: %v", p.Terms())
	}
	if got := p.Metrics.Interactions(); got != 58 {
		t.Errorf("Interactions() = %d, want 58", got)
	}
}

func ids(posts []*Post) []string {
	out := make([]string, len(posts))
	for i, p := range posts {
		out[i] = p.ID
	}
	return out
}

// TestIndexKeysMatchPostDerivations pins the single-tokenization ingest
// keys to the per-post derivations: the distinct normalized hashtags in
// first-occurrence order, and the full term set.
func TestIndexKeysMatchPostDerivations(t *testing.T) {
	posts := append(samplePosts(), &Post{
		ID: "dup", Author: "u", Text: "dpfdelete first, then #DPFdelete #dpfdelete #Gaaains and #gaains",
		CreatedAt: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	for _, p := range posts {
		pp := profile(p)
		tags, terms := pp.tags, pp.terms
		var want []string
		seen := map[string]bool{}
		for _, tag := range p.Hashtags() {
			if tag = nlp.Normalize(tag); !seen[tag] {
				seen[tag] = true
				want = append(want, tag)
			}
		}
		if !reflect.DeepEqual(tags, want) {
			t.Errorf("post %s: tags %v, want %v", p.ID, tags, want)
		}
		if !reflect.DeepEqual(terms, p.Terms()) {
			t.Errorf("post %s: terms %v, want %v", p.ID, terms, p.Terms())
		}
	}
	if pp := profile(posts[len(posts)-1]); !reflect.DeepEqual(pp.tags, []string{"dpfdelete", "gaains"}) {
		t.Errorf("duplicate tags not collapsed: %v", pp.tags)
	}
}
