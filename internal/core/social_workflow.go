package core

import (
	"context"
	"fmt"
	"time"

	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// SocialInput parameterizes one run of the Fig. 7 workflow.
type SocialInput struct {
	// Application is the target application ("excavator", "car", ...);
	// empty matches all applications (block 1).
	Application string
	// Region restricts the query region; empty matches all regions.
	Region social.Region
	// Since/Until bound the sentiment time window — the parameter whose
	// effect Fig. 9-B vs 9-C demonstrates. Zero values are open ends.
	Since, Until time.Time
	// Threats is the manually identified threat scenario list from the
	// product security team (block 10). Scenarios without keywords are
	// skipped.
	Threats []*tara.ThreatScenario
	// DisableLearning turns off the auto-learning loop (ablation A3).
	DisableLearning bool
	// FilterInauthentic enables the poisoning defence from the paper's
	// roadmap: duplicate-text, author-burst and engagement-anomaly posts
	// are dropped before scoring.
	FilterInauthentic bool
}

// ThreatTuning is the per-threat output of the workflow: the updated
// weight table (block 12) with its provenance.
type ThreatTuning struct {
	// Threat is the tuned scenario.
	Threat *tara.ThreatScenario
	// Insider reports the social classification of the scenario's posts.
	Insider bool
	// Posts is the number of posts that informed the tuning.
	Posts int
	// VectorShares is the attraction share per vector.
	VectorShares map[tara.AttackVector]float64
	// Factors are the SAI corrective factors (share / uniform prior).
	Factors map[tara.AttackVector]float64
	// Table is the regenerated feasibility table. Outsider scenarios
	// keep the standard G.9 weights (Fig. 8-A); insider scenarios get
	// SAI-tuned weights (Fig. 8-B).
	Table *tara.VectorTable
}

// SocialResult is the output of the Fig. 7 workflow.
type SocialResult struct {
	// Index is the sorted Social Attraction Index (block 6).
	Index *sai.Index
	// Learned lists the keywords added by auto-learning (block 5),
	// attributed topic → tags.
	Learned map[string][]string
	// Keywords is the extended keyword database used by the run.
	Keywords *KeywordDB
	// OutsiderTable is the unmodified G.9 table applied to outsider
	// threats (Fig. 8-A).
	OutsiderTable *tara.VectorTable
	// Tunings carries the per-threat weight tables (Fig. 8-B, Fig. 9).
	Tunings []*ThreatTuning
	// InauthenticFiltered counts the posts dropped by the poisoning
	// defence across all queries of the run (0 when the filter is off).
	InauthenticFiltered int
	// Window echoes the analysis window for report provenance.
	Since, Until time.Time
}

// RunSocial executes the social workflow of Fig. 7. The platform
// queries of blocks 1–4 (keyword groups), block 5 (re-queries after
// auto-learning) and blocks 10–12 (per-threat tuning) fan out across a
// worker pool of Config.Concurrency goroutines; results are assembled
// in input order, so the output is identical at any concurrency.
func (f *Framework) RunSocial(ctx context.Context, in SocialInput) (*SocialResult, error) {
	if f.searcher == nil {
		return nil, fmt.Errorf("core: social workflow requires a configured Searcher")
	}
	return f.runSocial(ctx, in, f.searcher, nil)
}

// RunSocialDelta is the delta-aware entry point of the continuous
// monitoring subsystem: the same Fig. 7 workflow, but with platform
// queries served through the result cache and every per-slice
// derivation — keyword-group co-occurrence graphs, SAI entries, threat
// tunings — reused while the slice's cached listing is untouched by
// ingest. After rc.PatchProfiles (or rc.InvalidateProfiles) of the new
// posts, only the slices a new post can actually match are recomputed,
// from their patched (or re-drained) listings, read in place from the
// cache, and such a slice re-analyzes only the posts new to its
// listing: every post it held before keeps its memoized SAI features
// (matched by a merge walk over the two ordered listings), and its
// co-occurrence graph is the previous graph plus the added posts when
// the new listing is a superset of the old one, rebuilt from scratch
// otherwise. A steady trickle of posts therefore costs tokenizing the
// delta plus one pointer walk over each touched listing, yet the result is
// identical to a cold RunSocial over the merged corpus (the equivalence
// the core and monitor tests pin down).
//
// Ignoring the framework's configured Searcher, queries go to the
// backend the cache wraps. Runs against the same cache must be
// serialized with the calls that apply deltas to it; the monitor's
// scheduler goroutine does both.
func (f *Framework) RunSocialDelta(ctx context.Context, in SocialInput, rc *ResultCache) (*SocialResult, error) {
	if rc == nil {
		return nil, fmt.Errorf("core: delta run requires a result cache")
	}
	return f.runSocial(ctx, in, rc.qc, rc)
}

// runSocial is the shared workflow implementation. With rc == nil every
// slice is computed from scratch; with a result cache, fresh memos are
// reused and recomputed ones stored back.
func (f *Framework) runSocial(ctx context.Context, in SocialInput, searcher social.Searcher, rc *ResultCache) (*SocialResult, error) {
	if rc != nil {
		rc.beginRun()
	}
	db := f.keywords.Clone()
	var filtered int
	learning := !in.DisableLearning && f.learnMax > 0

	// Blocks 1–4: query every keyword group over the target inputs.
	groups := db.Groups()
	groupOut := make([]*querySlice, len(groups))
	err := forEachLimited(ctx, f.concurrency, len(groups), func(ctx context.Context, i int) error {
		qs, err := f.querySlice(ctx, searcher, rc, groups[i].AllTags(), in, learning)
		if err != nil {
			return fmt.Errorf("core: query topic %s: %w", groups[i].Topic, err)
		}
		groupOut[i] = qs
		return nil
	})
	if err != nil {
		return nil, err
	}
	finalOut := make(map[string]*querySlice, len(groups))
	for i, g := range groups {
		finalOut[g.Topic] = groupOut[i]
		filtered += groupOut[i].filtered
	}

	// Block 5: auto-learn new keywords from the matched corpus and
	// re-query the groups that gained tags. Observation and database
	// extension walk the groups in registration order so learning stays
	// deterministic; the re-queries themselves fan out. Each group
	// contributes a per-group co-occurrence graph (memoized while its
	// listing is fresh); merging them is count-exact, so the learner
	// sees the same graph a direct pass over all posts would build.
	learned := map[string][]string{}
	if learning {
		learner := sai.NewLearner()
		for i := range groups {
			learner.ObserveGraph(groupOut[i].graph)
		}
		candidates, err := learner.Learn(db.SeedTags(), f.learnMax)
		if err != nil {
			return nil, fmt.Errorf("core: keyword learning: %w", err)
		}
		attributed := learner.Attribute(candidates, db.SeedGroupMap())
		var requery []string
		for _, g := range groups {
			tags, ok := attributed[g.Topic]
			if !ok {
				continue
			}
			added, err := db.Extend(g.Topic, tags)
			if err != nil {
				return nil, err
			}
			if len(added) == 0 {
				continue
			}
			learned[g.Topic] = added
			requery = append(requery, g.Topic)
		}
		requeryOut := make([]*querySlice, len(requery))
		err = forEachLimited(ctx, f.concurrency, len(requery), func(ctx context.Context, i int) error {
			qs, err := f.querySlice(ctx, searcher, rc, db.Group(requery[i]).AllTags(), in, false)
			if err != nil {
				return fmt.Errorf("core: re-query topic %s: %w", requery[i], err)
			}
			requeryOut[i] = qs
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, topic := range requery {
			finalOut[topic] = requeryOut[i]
			filtered += requeryOut[i].filtered
		}
	}

	// Blocks 6–9: SAI computation with insider/outsider separation.
	// Entries are per-topic pure functions of the final posts, memoized
	// alongside their slice; probabilities normalize over all entries in
	// registration order (identical for fresh and memoized entries).
	entries := make([]sai.Entry, 0, len(groups))
	for _, g := range groups {
		qs := finalOut[g.Topic]
		if qs.entry == nil {
			e := sai.EntryOf(g.Topic, g.AllTags(), qs.features)
			qs.entry = &e
		}
		entries = append(entries, *qs.entry)
	}
	index, err := sai.AssembleIndex(entries)
	if err != nil {
		return nil, err
	}

	// Blocks 10–12: per-threat weight table generation.
	result := &SocialResult{
		Index:         index,
		Learned:       learned,
		Keywords:      db,
		OutsiderTable: tara.StandardVectorTable(),
		Since:         in.Since,
		Until:         in.Until,
	}
	var threats []*tara.ThreatScenario
	for _, threat := range in.Threats {
		if threat == nil || len(threat.Keywords) == 0 {
			continue
		}
		threats = append(threats, threat)
	}
	tunings := make([]*ThreatTuning, len(threats))
	threatFiltered := make([]int, len(threats))
	err = forEachLimited(ctx, f.concurrency, len(threats), func(ctx context.Context, i int) error {
		tuning, dropped, err := f.tuneThreat(ctx, searcher, rc, threats[i], in)
		if err != nil {
			return err
		}
		tunings[i] = tuning
		threatFiltered[i] = dropped
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, tuning := range tunings {
		result.Tunings = append(result.Tunings, tuning)
		filtered += threatFiltered[i]
	}
	result.InauthenticFiltered = filtered
	if rc != nil {
		// Sweep fills and memos this run did not touch (only after a
		// fully successful run — a failed run must not evict state a
		// retry will reuse).
		rc.endRun()
	}
	return result, nil
}

// tuneThreat queries a threat scenario's keyword posts and regenerates
// its feasibility table. It returns the tuning plus the number of posts
// the poisoning defence dropped. With a result cache, the tuning is
// reused while the threat's listing is fresh and the scenario unchanged.
func (f *Framework) tuneThreat(ctx context.Context, searcher social.Searcher, rc *ResultCache, threat *tara.ThreatScenario, in SocialInput) (*ThreatTuning, int, error) {
	qs, err := f.querySlice(ctx, searcher, rc, threat.Keywords, in, false)
	if err != nil {
		return nil, 0, fmt.Errorf("core: query threat %s: %w", threat.ID, err)
	}
	var sig string
	if rc != nil {
		sig = memoSig(cacheKey(tagQuery(threat.Keywords, in).Canonical()), in)
		if tuning := rc.threatTuning(threat.ID, sig, qs.fill, threat); tuning != nil {
			return tuning, qs.filtered, nil
		}
	}
	tuning := &ThreatTuning{
		Threat:       threat,
		Posts:        len(qs.posts),
		Insider:      len(qs.posts) > 0 && sai.MajorityInsider(qs.features),
		VectorShares: sai.SharesOf(qs.features),
	}
	tuning.Factors = sai.CorrectiveFactors(tuning.VectorShares)
	if tuning.Insider {
		name := fmt.Sprintf("PSP insider: %s%s", threat.Name, windowSuffix(in.Since, in.Until))
		table, err := sai.GenerateVectorTable(name, tuning.VectorShares, f.bands)
		if err != nil {
			return nil, 0, fmt.Errorf("core: generate table for threat %s: %w", threat.ID, err)
		}
		tuning.Table = table
	} else {
		// Retuning outsider entries "does not make sense": they keep the
		// standard weights.
		tuning.Table = tara.StandardVectorTable()
	}
	if rc != nil {
		rc.storeThreat(threat.ID, sig, qs.fill, threat, tuning)
	}
	return tuning, qs.filtered, nil
}

// tagQuery builds the platform query of one tag set under the workflow
// filters, requesting the maximum page size to minimize round trips to
// remote platforms.
func tagQuery(tags []string, in SocialInput) social.Query {
	q := social.Query{
		AnyTags:    tags,
		Region:     in.Region,
		Since:      in.Since,
		Until:      in.Until,
		MaxResults: social.MaxPageSize,
	}
	if in.Application != "" {
		q.MustTerms = []string{in.Application}
	}
	return q
}

// memoSig is the memo signature of a tag query's slice: its listing
// cache key plus the poisoning-defence flag (the only SocialInput field
// that changes a slice's derivations without changing its listing).
// Slice memos keyed this way stay group-unique because NewKeywordDB
// rejects any tag shared between two groups, so no two groups (or
// their learned extensions, which Extend keeps disjoint) can produce
// the same signature; threats may share a signature with anything, but
// the threat path reads only the slice's posts, never its
// group-specific entry or graph.
func memoSig(key string, in SocialInput) string {
	if in.FilterInauthentic {
		return key + "|f"
	}
	return key
}

// querySlice collects a tag query's posts under the workflow filters,
// applying the poisoning defence when the input enables it, analyzing
// the posts into SAI features and building the group's co-occurrence
// graph when learning needs it. Without a result cache the posts are
// drained page by page from the searcher. With one, the slice reads
// its cached fill in place — drained once if the cache has none, never
// re-paged — and a memoized slice is returned as long as that fill is
// the one it was computed from; a slice whose listing a delta patched
// or dropped reuses the stale memo's features (see the querySlice
// type) and is stored back for the next run. The slice's posts may
// alias the fill's: both are immutable.
func (f *Framework) querySlice(ctx context.Context, searcher social.Searcher, rc *ResultCache, tags []string, in SocialInput, withGraph bool) (*querySlice, error) {
	if len(tags) == 0 {
		return &querySlice{}, nil
	}
	var (
		sig   string
		prev  *querySlice
		fill  *cacheFill
		posts []*social.Post
		err   error
	)
	if rc != nil {
		canon := tagQuery(tags, in).Canonical()
		key := cacheKey(canon)
		sig = memoSig(key, in)
		rc.markUsed(key, sig)
		if fill, err = rc.qc.fill(ctx, canon, key); err != nil {
			return nil, err
		}
		var fresh bool
		if prev, fresh = rc.slice(sig, fill); fresh {
			if withGraph && prev.graph == nil {
				prev.graph = sai.BuildGroupGraph(prev.posts)
				rc.tokenized.Add(int64(len(prev.posts)))
			}
			return prev, nil
		}
		posts = fill.posts
	} else if posts, err = social.SearchAll(ctx, searcher, tagQuery(tags, in)); err != nil {
		return nil, err
	}
	qs := &querySlice{fill: fill, posts: posts}
	if in.FilterInauthentic {
		reportOut, err := sai.FilterAuthentic(posts, sai.DefaultAuthenticityConfig())
		if err != nil {
			return nil, err
		}
		qs.posts, qs.filtered = reportOut.Clean, len(reportOut.Flagged)
	}
	tokenized := f.analyzeSlice(qs, prev, withGraph)
	if rc != nil {
		rc.tokenized.Add(int64(tokenized))
		rc.storeSlice(sig, qs)
	}
	return qs, nil
}

// analyzeSlice fills a new slice's features — and its co-occurrence
// graph when withGraph — reusing prev's features for the posts prev
// already held. Both listings are (CreatedAt, ID)-ordered, so one merge
// walk matches them: a post held by pointer (a patched fill shares its
// posts with the old one) or, failing that, by (CreatedAt, ID) — a
// re-drained federated page or a restored memo holds its own copies.
// A post the walk misses is only re-tokenized: features are a pure
// function of the post, so matching can change the cost, never the
// result. It returns the number of posts tokenized: each at most once,
// new posts for their features and hashtags together, reused posts
// only when the graph must be rebuilt.
func (f *Framework) analyzeSlice(qs, prev *querySlice, withGraph bool) int {
	var old []*social.Post
	if prev != nil {
		old = prev.posts
	}
	qs.features = make([]sai.PostFeatures, len(qs.posts))
	var added []int // positions of the posts prev did not hold
	j := 0
	for i, p := range qs.posts {
		// Skip the previous posts sorting before p; c ends 0 when old[j]
		// is p, non-zero when prev does not hold p.
		c := 1
		for j < len(old) {
			if old[j] == p {
				c = 0
				break
			}
			if c = postCmp(old[j], p); c >= 0 {
				break
			}
			j++
		}
		if c != 0 {
			added = append(added, i)
			continue
		}
		qs.features[i] = prev.features[j]
		j++
	}
	rebuild := false
	if withGraph {
		// Each previous post matches at most once, so prev ⊆ posts
		// exactly when all of them matched.
		qs.graph = nlp.NewCooccurrenceGraph()
		if prev != nil && prev.graph != nil && len(qs.posts)-len(added) == len(old) {
			qs.graph.Merge(prev.graph)
		} else {
			rebuild = true
		}
	}
	tokenized := 0
	for i, p := range qs.posts {
		isNew := len(added) > 0 && added[0] == i
		if isNew {
			added = added[1:]
		} else if !rebuild {
			continue
		}
		tokens := nlp.Tokenize(p.Text)
		tokenized++
		if isNew {
			qs.features[i] = f.builder.AnalyzeTokens(p, tokens)
		}
		if qs.graph != nil {
			qs.graph.Observe(nlp.Hashtags(tokens))
		}
	}
	return tokenized
}

// TopicTrend computes the quarterly attraction trend of a tag set under
// the workflow filters — the "historical trend" search parameter of the
// paper. The poisoning defence applies when the input enables it.
func (f *Framework) TopicTrend(ctx context.Context, tags []string, in SocialInput) (*sai.Trend, error) {
	if f.searcher == nil {
		return nil, fmt.Errorf("core: trend analysis requires a configured Searcher")
	}
	if len(tags) == 0 {
		return nil, fmt.Errorf("core: trend analysis needs at least one tag")
	}
	qs, err := f.querySlice(ctx, f.searcher, nil, tags, in, false)
	if err != nil {
		return nil, err
	}
	return sai.TrendOf(qs.posts, qs.features)
}

// PersistLearned merges a run's learned keywords back into the
// framework's database, making them available to future runs (the
// paper's "future runs" loop).
func (f *Framework) PersistLearned(result *SocialResult) error {
	if result == nil {
		return fmt.Errorf("core: nil social result")
	}
	for topic, tags := range result.Learned {
		if _, err := f.keywords.Extend(topic, tags); err != nil {
			return err
		}
	}
	return nil
}

func windowSuffix(since, until time.Time) string {
	switch {
	case since.IsZero() && until.IsZero():
		return " (all time)"
	case until.IsZero():
		return fmt.Sprintf(" (since %s)", since.Format("2006-01-02"))
	case since.IsZero():
		return fmt.Sprintf(" (until %s)", until.Format("2006-01-02"))
	default:
		return fmt.Sprintf(" (%s to %s)", since.Format("2006-01-02"), until.Format("2006-01-02"))
	}
}
