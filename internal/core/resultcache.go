package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// cacheFill is one cached listing: a full drain of its query in
// (CreatedAt, ID) order. The pointer doubles as a freshness token: a
// fill is never modified — a delta that matches it replaces it, by a
// patched copy or by nothing (dropped, re-drained on next use) — so
// derived memos (graphs, SAI entries, threat tunings) prove their
// inputs unchanged by holding the fill pointer they were computed from.
// The posts slice is owned by the fill: SearchAll accumulates page
// copies and a patch merges into a new slice, so a listing aliases no
// store memory and no other fill's, and fill identity stays a pure
// function of the deltas applied, not of store internals. Nothing
// writes to it afterwards, so a delta run's slices read it in place,
// from any of the workflow's goroutines, and a patched fill shares its
// post pointers with the fill it replaced.
type cacheFill struct {
	query   social.Query        // canonical form; the export/import key
	matcher social.QueryMatcher // compiled predicate for delta matching
	posts   []*social.Post
}

// QueryCache caches fully drained platform listings keyed by the
// canonical query, serving pages from memory. Newly ingested posts are
// applied with PatchProfiles or InvalidateProfiles, which match the
// store's social.PostProfile of each post against every listing's
// compiled social.QueryMatcher, the exact Search predicate.
// Posts ingested into the cache's own backend store patch a matching
// listing in place of a re-drain: the store is append-only, so its
// fresh drain is the old listing plus the matching new posts. Posts
// from anywhere else — the cache over a federated Multi — drop the
// listing, and the next Search re-drains it. Either way a cached
// listing is always identical to what a fresh drain would return.
//
// A query's listing is drained once, at its first use: by Search, which
// pages it out like the backend would, or by a delta run, which reads
// the fill in place. Search is safe for concurrent use (the workflow
// fans queries out); applying a delta must not run concurrently with a
// workflow run using the cache — the monitor serializes both on one
// scheduler goroutine.
type QueryCache struct {
	mu      sync.RWMutex
	backend social.Searcher
	fills   map[string]*cacheFill
}

var _ social.Searcher = (*QueryCache)(nil)

// NewQueryCache wraps a platform behind a listing cache.
func NewQueryCache(backend social.Searcher) *QueryCache {
	return &QueryCache{backend: backend, fills: make(map[string]*cacheFill)}
}

// cacheKey renders a canonical query as a map key.
func cacheKey(c social.Query) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%q|%q|%s", c.AnyTags, c.MustTerms, c.Region)
	if !c.Since.IsZero() {
		fmt.Fprintf(&sb, "|s%d", c.Since.UnixNano())
	}
	if !c.Until.IsZero() {
		fmt.Fprintf(&sb, "|u%d", c.Until.UnixNano())
	}
	return sb.String()
}

// Search implements social.Searcher: pages are cut from the cached
// drained listing, with the same keyset tokens the store would emit.
func (c *QueryCache) Search(ctx context.Context, q social.Query) (*social.Page, error) {
	canon := q.Canonical()
	fill, err := c.fill(ctx, canon, cacheKey(canon))
	if err != nil {
		return nil, err
	}
	return social.PagePosts(fill.posts, q.MaxResults, q.PageToken)
}

// fill returns the cached listing of a canonical query under its key,
// draining it from the backend once if absent. Concurrent drains of
// one key keep the first fill stored, so every caller sees one fill
// identity.
func (c *QueryCache) fill(ctx context.Context, canon social.Query, key string) (*cacheFill, error) {
	if fill := c.lookup(key); fill != nil {
		return fill, nil
	}
	drain := canon
	drain.MaxResults = social.MaxPageSize
	posts, err := social.SearchAll(ctx, c.backend, drain)
	if err != nil {
		return nil, err
	}
	fill := &cacheFill{query: canon, matcher: canon.Matcher(), posts: posts}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.fills[key]; cur != nil {
		return cur, nil // a concurrent drain won
	}
	c.fills[key] = fill
	return fill, nil
}

// lookup returns the current fill for a key, or nil.
func (c *QueryCache) lookup(key string) *cacheFill {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.fills[key]
}

// InvalidateProfiles drops every cached listing a newly ingested post
// would appear in, returning the number of listings dropped; the next
// Search of a dropped query re-drains it from the backend. Listings the
// posts cannot match stay valid — the exactness that lets the
// incremental path skip their re-computation entirely.
func (c *QueryCache) InvalidateProfiles(profiles []*social.PostProfile) int {
	return c.apply(profiles, false)
}

// PatchProfiles is InvalidateProfiles for posts ingested into the
// cache's own backend store: every listing the posts match is replaced
// by a new fill holding the (CreatedAt, ID)-ordered merge of the old
// listing and its matching posts, so no re-drain is needed. A post the
// listing already holds is skipped — a cold drain may have listed it
// before its delivery, and a restart may deliver it twice — so
// patching is idempotent, and a listing that gains nothing keeps its
// fill. It returns the number of listings the posts matched, patched
// or not, the count InvalidateProfiles would have dropped.
func (c *QueryCache) PatchProfiles(profiles []*social.PostProfile) int {
	return c.apply(profiles, true)
}

// apply matches a delta against every listing, patching or dropping
// each matched one.
func (c *QueryCache) apply(profiles []*social.PostProfile, patch bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	matched := 0
	var add []*social.Post
	for key, fill := range c.fills {
		add = add[:0]
		for _, pp := range profiles {
			if fill.matcher.Matches(pp) {
				add = append(add, pp.Post())
				if !patch {
					break
				}
			}
		}
		if len(add) == 0 {
			continue
		}
		matched++
		if !patch {
			delete(c.fills, key)
		} else if posts := mergeNew(fill.posts, add); len(posts) > len(fill.posts) {
			c.fills[key] = &cacheFill{query: fill.query, matcher: fill.matcher, posts: posts}
		}
	}
	return matched
}

// mergeNew returns a new (CreatedAt, ID)-ordered listing holding a
// sorted listing's posts plus the added ones whose IDs it does not hold
// yet, each once. Post IDs are unique and posts immutable, so a held ID
// sorts equal to its copy in add. add is sorted in place.
func mergeNew(listing, add []*social.Post) []*social.Post {
	slices.SortFunc(add, postCmp)
	out := make([]*social.Post, 0, len(listing)+len(add))
	i := 0
	for _, p := range add {
		k, held := slices.BinarySearchFunc(listing[i:], p, postCmp)
		out = append(out, listing[i:i+k]...)
		i += k
		if !held && (len(out) == 0 || out[len(out)-1].ID != p.ID) {
			out = append(out, p)
		}
	}
	return append(out, listing[i:]...)
}

// postCmp orders posts by (CreatedAt, ID), the order of every listing.
func postCmp(a, b *social.Post) int {
	if c := a.CreatedAt.Compare(b.CreatedAt); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// Len returns the number of cached listings.
func (c *QueryCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.fills)
}

// querySlice is one platform query's contribution to a workflow run:
// the (possibly authenticity-filtered) posts, their SAI features
// (features[i] describes posts[i]), the poisoning-defence drop count,
// and the lazily built derivations the incremental path memoizes — the
// group's co-occurrence graph and SAI entry.
//
// On a cached run the posts are the fill's own slice, or the poisoning
// defence's survivors of it. When a delta replaces the fill — patched,
// or dropped and re-drained — the new slice inherits the previous
// memo's features for every post both listings hold, matched by one
// merge walk over the two (CreatedAt, ID)-ordered listings (by pointer
// first, then by CreatedAt and ID; posts are immutable, and a listing —
// a federated one included — holds each ID once), so only posts new to
// the listing are tokenized, whether the previous memo was built in
// this process or restored from persisted state. The graph
// follows one rule: a listing that is a superset of the previous one —
// every patched listing, unless the poisoning defence now drops a post
// it kept — gets the previous graph plus the added posts' observations
// (integer counts, so exact); any other listing — a post dropped by the
// poisoning defence, or a federated page that lost a backend — rebuilds
// it from scratch.
type querySlice struct {
	fill     *cacheFill // nil on uncached runs
	posts    []*social.Post
	features []sai.PostFeatures
	filtered int
	graph    *nlp.CooccurrenceGraph
	entry    *sai.Entry
}

// threatMemo caches one threat scenario's tuning against its query fill.
type threatMemo struct {
	sig    string
	fill   *cacheFill
	threat *tara.ThreatScenario // identity of the input scenario
	tuning *ThreatTuning
}

// ResultCache is the state behind incremental re-assessment: a listing
// cache plus per-slice memos of everything the workflow derives from a
// single query's posts. RunSocialDelta reuses a memo only while the
// query's cacheFill pointer is unchanged — i.e. while no ingested post
// was added to the query's listing — which is exactly the condition
// under which the slice's inputs, and therefore its derivations, are
// provably identical. A memo whose fill was replaced still lends its
// per-post features (by post ID) and, for a superset listing, its
// co-occurrence graph to the new slice, so a delta costs tokenizing the
// posts new to each patched or re-drained listing plus arithmetic over
// the listing — and, for a patched one, no backend query at all. Features
// and graphs live inside slice memos and are freed when the sweep drops
// a slice; ExportMemos and ImportFills carry them across a restart
// next to the fills, so a restored cache is as warm as the saved one.
type ResultCache struct {
	qc      *QueryCache
	mu      sync.Mutex
	slices  map[string]*querySlice
	threats map[string]*threatMemo
	// Per-run usage tracking: a successful run sweeps the fills and
	// memos it did not touch, so a long-running daemon whose learned
	// tag sets drift does not accumulate stale listings forever.
	usedKeys    map[string]bool
	usedSigs    map[string]bool
	usedThreats map[string]bool
	// tokenized counts the posts tokenized over the cache's lifetime,
	// into features or into a rebuilt co-occurrence graph — the
	// incremental cost model's unit of work.
	tokenized atomic.Int64
}

// NewResultCache builds a result cache over a platform backend. Pass it
// to Framework.RunSocialDelta; apply newly ingested posts with
// PatchProfiles (posts of the backend store) or InvalidateProfiles.
func NewResultCache(backend social.Searcher) *ResultCache {
	return &ResultCache{
		qc:      NewQueryCache(backend),
		slices:  make(map[string]*querySlice),
		threats: make(map[string]*threatMemo),
	}
}

// Queries exposes the underlying listing cache (also a social.Searcher).
func (rc *ResultCache) Queries() *QueryCache { return rc.qc }

// PatchProfiles applies newly ingested posts of the backend store to
// the cached listings (see QueryCache.PatchProfiles): each matched
// listing gains its posts, and the memoized derivations follow its new
// fill. It returns the number of cached listings the posts matched;
// zero means a subsequent RunSocialDelta is guaranteed to reproduce the
// previous result without any work.
func (rc *ResultCache) PatchProfiles(profiles []*social.PostProfile) int {
	return rc.qc.PatchProfiles(profiles)
}

// InvalidateProfiles is PatchProfiles for a backend the posts did not
// come from directly, such as a federated Multi: matched listings are
// dropped and re-drained by the next run.
func (rc *ResultCache) InvalidateProfiles(profiles []*social.PostProfile) int {
	return rc.qc.InvalidateProfiles(profiles)
}

// beginRun resets the usage tracking for one workflow run.
func (rc *ResultCache) beginRun() {
	rc.mu.Lock()
	rc.usedKeys = make(map[string]bool)
	rc.usedSigs = make(map[string]bool)
	rc.usedThreats = make(map[string]bool)
	rc.mu.Unlock()
}

// endRun drops every fill and memo the completed run did not use —
// leftovers of previous inputs or drifted learned tag sets that would
// otherwise pin listings (and slow delta matching) forever.
func (rc *ResultCache) endRun() {
	rc.mu.Lock()
	for sig := range rc.slices {
		if !rc.usedSigs[sig] {
			delete(rc.slices, sig)
		}
	}
	for id := range rc.threats {
		if !rc.usedThreats[id] {
			delete(rc.threats, id)
		}
	}
	used := rc.usedKeys
	rc.mu.Unlock()
	rc.qc.retain(used)
}

// markUsed records one slice access of the current run.
func (rc *ResultCache) markUsed(key, sig string) {
	rc.mu.Lock()
	if rc.usedKeys != nil {
		rc.usedKeys[key] = true
		rc.usedSigs[sig] = true
	}
	rc.mu.Unlock()
}

// retain drops all fills except the keyed ones.
func (c *QueryCache) retain(keys map[string]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.fills {
		if !keys[key] {
			delete(c.fills, key)
		}
	}
}

// slice returns the memoized querySlice for a signature, if any, and
// whether its fill is still current. A stale memo is returned too: its
// features seed the slice of the patched or re-drained listing.
func (rc *ResultCache) slice(sig string, fill *cacheFill) (qs *querySlice, fresh bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	qs = rc.slices[sig]
	return qs, qs != nil && fill != nil && qs.fill == fill
}

func (rc *ResultCache) storeSlice(sig string, qs *querySlice) {
	rc.mu.Lock()
	rc.slices[sig] = qs
	rc.mu.Unlock()
}

func (rc *ResultCache) threatTuning(id, sig string, fill *cacheFill, threat *tara.ThreatScenario) *ThreatTuning {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.usedThreats != nil {
		rc.usedThreats[id] = true
	}
	tm := rc.threats[id]
	if tm != nil && tm.sig == sig && tm.fill == fill && fill != nil && tm.threat == threat {
		return tm.tuning
	}
	return nil
}

func (rc *ResultCache) storeThreat(id, sig string, fill *cacheFill, threat *tara.ThreatScenario, tuning *ThreatTuning) {
	rc.mu.Lock()
	rc.threats[id] = &threatMemo{sig: sig, fill: fill, threat: threat, tuning: tuning}
	rc.mu.Unlock()
}
