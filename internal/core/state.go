package core

import (
	"sort"

	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
)

// The cache export/import surface: everything the continuous-monitoring
// daemon must persist to restart warm. The result cache round-trips
// through FillStates, which store post IDs only — the posts themselves
// are durable in the store, so a fill rehydrates by lookup instead of
// duplicating the corpus on disk — and MemoStates, which store each
// slice's per-post features and co-occurrence graph, so a restored
// cache re-analyzes nothing it had analyzed before. Both have a compact
// binary form (AppendFills, AppendMemos) for the monitor's state file.
// The workflow result itself is not persisted: RunSocialDelta over the
// restored cache re-derives it from this evidence without a platform
// query or a tokenized post.

// FillState is one serialized listing-cache entry: the canonical query
// plus its result's post IDs in listing order. Posts rehydrate from the
// durable store by ID.
type FillState struct {
	Query   social.Query
	PostIDs []string
}

// MemoState is one serialized slice memo: the derivations of one
// query's posts, bound to the fill they were computed from.
type MemoState struct {
	// Sig is the memo signature: the fill key plus the
	// poisoning-defence flag.
	Sig string
	// Key is the cache key of the fill the memo derives from.
	Key string
	// Kept holds the ascending positions, in the fill's listing, of the
	// posts the memo holds — the poisoning defence's survivors. Nil
	// means the memo holds the whole listing.
	Kept []int
	// Features describes the memo's posts in listing order.
	Features []sai.PostFeatures
	// Filtered is the poisoning defence's drop count.
	Filtered int
	// Graph is the keyword group's co-occurrence graph; nil when the
	// slice never built one.
	Graph *nlp.CooccurrenceGraph
}

// ExportFills serializes the listing cache, sorted by cache key so the
// persisted state is deterministic.
func (rc *ResultCache) ExportFills() []FillState {
	c := rc.qc
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.fills))
	for key := range c.fills {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]FillState, 0, len(keys))
	for _, key := range keys {
		fill := c.fills[key]
		ids := make([]string, len(fill.posts))
		for i, p := range fill.posts {
			ids[i] = p.ID
		}
		out = append(out, FillState{Query: fill.query, PostIDs: ids})
	}
	return out
}

// ExportMemos serializes the slice memos whose fills are current,
// sorted by signature. The states share the memos' features and
// graphs, which are never modified once stored. Like ExportFills, it
// must not run concurrently with a workflow run.
func (rc *ResultCache) ExportMemos() []MemoState {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	sigs := make([]string, 0, len(rc.slices))
	for sig := range rc.slices {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	out := make([]MemoState, 0, len(sigs))
	for _, sig := range sigs {
		qs := rc.slices[sig]
		if qs.fill == nil {
			continue
		}
		key := cacheKey(qs.fill.query)
		if rc.qc.lookup(key) != qs.fill {
			continue // replaced by a delta: the next run recomputes it anyway
		}
		ms := MemoState{Sig: sig, Key: key, Features: qs.features, Filtered: qs.filtered, Graph: qs.graph}
		if len(qs.posts) != len(qs.fill.posts) {
			// The poisoning defence keeps a subsequence of the listing.
			ms.Kept = make([]int, 0, len(qs.posts))
			for i, p := range qs.fill.posts {
				if n := len(ms.Kept); n < len(qs.posts) && qs.posts[n].ID == p.ID {
					ms.Kept = append(ms.Kept, i)
				}
			}
			if len(ms.Kept) != len(qs.posts) {
				continue
			}
		}
		out = append(out, ms)
	}
	return out
}

// ImportFills rehydrates persisted listings and their slice memos into
// the cache, resolving post IDs through lookup (typically Store.Post
// over the recovered durable store). A fill with any unresolvable post
// is dropped — the next run re-drains that one query — and so is every
// memo of it; the count of fills actually restored is returned. An
// imported memo is bound to its imported fill, so a run that finds the
// fill untouched reuses the memo outright, and one that finds it
// patched or re-drained reuses its features by post ID and extends its
// graph. Must not run concurrently with workflow runs, like
// PatchProfiles.
func (rc *ResultCache) ImportFills(fills []FillState, memos []MemoState, lookup func(id string) *social.Post) int {
	imported := make(map[string]*cacheFill, len(fills))
	for _, fs := range fills {
		canon := fs.Query.Canonical()
		posts := make([]*social.Post, 0, len(fs.PostIDs))
		for _, id := range fs.PostIDs {
			p := lookup(id)
			if p == nil {
				break
			}
			posts = append(posts, p)
		}
		if len(posts) != len(fs.PostIDs) {
			continue
		}
		imported[cacheKey(canon)] = &cacheFill{query: canon, matcher: canon.Matcher(), posts: posts}
	}
	c := rc.qc
	c.mu.Lock()
	for key, fill := range imported {
		c.fills[key] = fill
	}
	c.mu.Unlock()

	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, ms := range memos {
		fill := imported[ms.Key]
		if fill == nil {
			continue
		}
		posts := fill.posts
		if ms.Kept != nil {
			posts = make([]*social.Post, 0, len(ms.Kept))
			for _, i := range ms.Kept {
				if i < 0 || i >= len(fill.posts) {
					break
				}
				posts = append(posts, fill.posts[i])
			}
			if len(posts) != len(ms.Kept) {
				continue
			}
		}
		if len(posts) != len(ms.Features) {
			continue
		}
		rc.slices[ms.Sig] = &querySlice{fill: fill, posts: posts, features: ms.Features, filtered: ms.Filtered, graph: ms.Graph}
	}
	return len(imported)
}
