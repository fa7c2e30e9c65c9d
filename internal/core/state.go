package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// The cache export/import surface: everything the continuous-monitoring
// daemon must persist to restart warm. A SocialResult round-trips
// through ResultState (a plain-JSON wire form — attack vectors and
// feasibility ratings travel by name, threat scenarios by ID). The
// result cache round-trips through FillStates, which store post IDs
// only — the posts themselves are durable in the store, so a fill
// rehydrates by lookup instead of duplicating the corpus on disk — and
// MemoStates, which store each slice's per-post features and
// co-occurrence graph, so a restored cache re-analyzes nothing it had
// analyzed before. Both have a compact binary form (AppendFills,
// AppendMemos) for the monitor's state file.

// ResultState is the JSON-serializable form of a SocialResult.
type ResultState struct {
	Index               []EntryState        `json:"index"`
	Learned             map[string][]string `json:"learned,omitempty"`
	Keywords            []GroupState        `json:"keywords"`
	OutsiderTable       *tara.VectorTable   `json:"outsider_table"`
	Tunings             []TuningState       `json:"tunings"`
	InauthenticFiltered int                 `json:"inauthentic_filtered"`
	Since               time.Time           `json:"since,omitempty"`
	Until               time.Time           `json:"until,omitempty"`
}

// EntryState is one serialized SAI index row.
type EntryState struct {
	Topic        string             `json:"topic"`
	Tags         []string           `json:"tags"`
	Posts        int                `json:"posts"`
	Score        float64            `json:"score"`
	Probability  float64            `json:"probability"`
	Insider      bool               `json:"insider"`
	VectorShares map[string]float64 `json:"vector_shares,omitempty"`
}

// GroupState is one serialized keyword group (seed and learned tags
// kept apart so a restore rebuilds the same provenance).
type GroupState struct {
	Topic   string   `json:"topic"`
	Tags    []string `json:"tags"`
	Learned []string `json:"learned,omitempty"`
}

// TuningState is one serialized per-threat tuning. The scenario itself
// travels by ID: a restore resolves it against the monitored input's
// live scenario list, so a changed threat configuration invalidates the
// persisted state instead of silently resurrecting a stale scenario.
type TuningState struct {
	ThreatID     string             `json:"threat_id"`
	Insider      bool               `json:"insider"`
	Posts        int                `json:"posts"`
	VectorShares map[string]float64 `json:"vector_shares,omitempty"`
	Factors      map[string]float64 `json:"factors,omitempty"`
	Table        *tara.VectorTable  `json:"table"`
}

// exportShares renders a vector-keyed map by vector name.
func exportShares(shares map[tara.AttackVector]float64) map[string]float64 {
	if len(shares) == 0 {
		return nil
	}
	out := make(map[string]float64, len(shares))
	for v, f := range shares {
		out[v.String()] = f
	}
	return out
}

func restoreShares(shares map[string]float64) (map[tara.AttackVector]float64, error) {
	if len(shares) == 0 {
		return nil, nil
	}
	out := make(map[tara.AttackVector]float64, len(shares))
	for name, f := range shares {
		v, err := tara.ParseVector(name)
		if err != nil {
			return nil, err
		}
		out[v] = f
	}
	return out, nil
}

// ExportResult serializes a workflow result for persistence.
func ExportResult(r *SocialResult) (*ResultState, error) {
	if r == nil || r.Index == nil || r.Keywords == nil || r.OutsiderTable == nil {
		return nil, fmt.Errorf("core: incomplete social result")
	}
	st := &ResultState{
		Learned:             r.Learned,
		OutsiderTable:       r.OutsiderTable,
		InauthenticFiltered: r.InauthenticFiltered,
		Since:               r.Since,
		Until:               r.Until,
	}
	for _, e := range r.Index.Entries {
		st.Index = append(st.Index, EntryState{
			Topic:        e.Topic,
			Tags:         e.Tags,
			Posts:        e.Posts,
			Score:        e.Score,
			Probability:  e.Probability,
			Insider:      e.Insider,
			VectorShares: exportShares(e.VectorShares),
		})
	}
	for _, g := range r.Keywords.Groups() {
		st.Keywords = append(st.Keywords, GroupState{Topic: g.Topic, Tags: g.Tags, Learned: g.Learned})
	}
	for _, tuning := range r.Tunings {
		st.Tunings = append(st.Tunings, TuningState{
			ThreatID:     tuning.Threat.ID,
			Insider:      tuning.Insider,
			Posts:        tuning.Posts,
			VectorShares: exportShares(tuning.VectorShares),
			Factors:      exportShares(tuning.Factors),
			Table:        tuning.Table,
		})
	}
	return st, nil
}

// RestoreResult rebuilds a SocialResult from its serialized form,
// resolving threat scenarios by ID against the monitored input's live
// list. A scenario the state references but the input no longer carries
// is an error — the caller treats it as "state stale, run cold".
func RestoreResult(st *ResultState, threats []*tara.ThreatScenario) (*SocialResult, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil result state")
	}
	byID := make(map[string]*tara.ThreatScenario, len(threats))
	for _, threat := range threats {
		if threat != nil {
			byID[threat.ID] = threat
		}
	}
	var groups []KeywordGroup
	for _, g := range st.Keywords {
		groups = append(groups, KeywordGroup{Topic: g.Topic, Tags: g.Tags})
	}
	db, err := NewKeywordDB(groups)
	if err != nil {
		return nil, fmt.Errorf("core: restore keywords: %w", err)
	}
	for _, g := range st.Keywords {
		if len(g.Learned) == 0 {
			continue
		}
		if _, err := db.Extend(g.Topic, g.Learned); err != nil {
			return nil, fmt.Errorf("core: restore learned tags: %w", err)
		}
	}
	if st.OutsiderTable == nil {
		return nil, fmt.Errorf("core: result state without outsider table")
	}
	res := &SocialResult{
		Index:               &sai.Index{},
		Learned:             st.Learned,
		Keywords:            db,
		OutsiderTable:       st.OutsiderTable,
		InauthenticFiltered: st.InauthenticFiltered,
		Since:               st.Since,
		Until:               st.Until,
	}
	for _, e := range st.Index {
		shares, err := restoreShares(e.VectorShares)
		if err != nil {
			return nil, fmt.Errorf("core: restore index entry %s: %w", e.Topic, err)
		}
		res.Index.Entries = append(res.Index.Entries, sai.Entry{
			Topic:        e.Topic,
			Tags:         e.Tags,
			Posts:        e.Posts,
			Score:        e.Score,
			Probability:  e.Probability,
			Insider:      e.Insider,
			VectorShares: shares,
		})
	}
	for _, ts := range st.Tunings {
		threat := byID[ts.ThreatID]
		if threat == nil {
			return nil, fmt.Errorf("core: persisted tuning references unknown threat %s", ts.ThreatID)
		}
		shares, err := restoreShares(ts.VectorShares)
		if err != nil {
			return nil, fmt.Errorf("core: restore tuning %s: %w", ts.ThreatID, err)
		}
		factors, err := restoreShares(ts.Factors)
		if err != nil {
			return nil, fmt.Errorf("core: restore tuning %s: %w", ts.ThreatID, err)
		}
		if ts.Table == nil {
			return nil, fmt.Errorf("core: persisted tuning %s without table", ts.ThreatID)
		}
		res.Tunings = append(res.Tunings, &ThreatTuning{
			Threat:       threat,
			Insider:      ts.Insider,
			Posts:        ts.Posts,
			VectorShares: shares,
			Factors:      factors,
			Table:        ts.Table,
		})
	}
	return res, nil
}

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
