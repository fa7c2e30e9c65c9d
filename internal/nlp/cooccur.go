package nlp

import "sort"

// CooccurrenceGraph counts how often tag pairs appear in the same
// document. PSP's auto-learning loop (Fig. 7 block 5) uses it to discover
// new attack hashtags: tags that frequently co-occur with known attack
// tags are candidate keywords for future queries.
type CooccurrenceGraph struct {
	// counts[a][b] = number of documents containing both a and b (a ≠ b).
	counts map[string]map[string]int
	// docFreq[a] = number of documents containing a.
	docFreq map[string]int
	docs    int
}

// NewCooccurrenceGraph returns an empty graph.
func NewCooccurrenceGraph() *CooccurrenceGraph {
	return &CooccurrenceGraph{
		counts:  make(map[string]map[string]int),
		docFreq: make(map[string]int),
	}
}

// Observe records one document's tag set (duplicates are collapsed).
func (g *CooccurrenceGraph) Observe(tags []string) {
	uniq := make([]string, 0, len(tags))
	seen := make(map[string]bool, len(tags))
	for _, t := range tags {
		t = Normalize(t)
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		uniq = append(uniq, t)
	}
	if len(uniq) == 0 {
		return
	}
	g.docs++
	for _, t := range uniq {
		g.docFreq[t]++
	}
	for i, a := range uniq {
		for j, b := range uniq {
			if i == j {
				continue
			}
			if g.counts[a] == nil {
				g.counts[a] = make(map[string]int)
			}
			g.counts[a][b]++
		}
	}
}

// Counts exposes the graph's raw counts for persistence: the number of
// observed documents, each tag's document frequency and each tag's
// co-occurrence row (present only for tags that co-occurred with
// another). The maps are the graph's own; callers must not modify them.
func (g *CooccurrenceGraph) Counts() (docs int, docFreq map[string]int, counts map[string]map[string]int) {
	return g.docs, g.docFreq, g.counts
}

// GraphFromCounts rebuilds a graph from the counts Counts exposed,
// taking ownership of the maps, which must be non-nil.
func GraphFromCounts(docs int, docFreq map[string]int, counts map[string]map[string]int) *CooccurrenceGraph {
	return &CooccurrenceGraph{counts: counts, docFreq: docFreq, docs: docs}
}

// Docs returns the number of observed documents.
func (g *CooccurrenceGraph) Docs() int { return g.docs }

// Merge adds another graph's observations into g. Counts are plain
// integer sums, so merging per-partition graphs — in any order — yields
// exactly the graph a single pass over all documents would have built.
// The incremental re-assessment path relies on this: unchanged keyword
// groups contribute memoized per-group graphs instead of re-tokenizing
// their posts.
func (g *CooccurrenceGraph) Merge(other *CooccurrenceGraph) {
	if other == nil {
		return
	}
	g.docs += other.docs
	for t, c := range other.docFreq {
		g.docFreq[t] += c
	}
	for a, row := range other.counts {
		dst := g.counts[a]
		if dst == nil {
			dst = make(map[string]int, len(row))
			g.counts[a] = dst
		}
		for b, c := range row {
			dst[b] += c
		}
	}
}

// Count returns how many documents contain both a and b.
func (g *CooccurrenceGraph) Count(a, b string) int {
	return g.counts[Normalize(a)][Normalize(b)]
}

// Association is a candidate tag scored by its association with a seed
// set.
type Association struct {
	Tag string
	// Score is the summed conditional probability P(tag | seed) over the
	// seed set.
	Score float64
	// Support is the total number of co-occurrences with any seed.
	Support int
}

// Associates ranks tags by association with the seed set: for each
// candidate tag t ∉ seeds, score = Σ_s count(t, s) / docFreq(s). minSupport
// filters noise (candidates co-occurring fewer than minSupport times in
// total are dropped). The result is sorted by descending score, ties by
// tag.
func (g *CooccurrenceGraph) Associates(seeds []string, minSupport int) []Association {
	seedSet := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		seedSet[Normalize(s)] = true
	}
	scores := make(map[string]float64)
	support := make(map[string]int)
	// Seeds iterate in sorted order so the floating-point score sums
	// accumulate identically on every run — ranking must be reproducible
	// for the workflow's determinism and incremental-equivalence
	// guarantees.
	ordered := make([]string, 0, len(seedSet))
	for s := range seedSet {
		ordered = append(ordered, s)
	}
	sort.Strings(ordered)
	for _, s := range ordered {
		df := g.docFreq[s]
		if df == 0 {
			continue
		}
		for t, c := range g.counts[s] {
			if seedSet[t] {
				continue
			}
			scores[t] += float64(c) / float64(df)
			support[t] += c
		}
	}
	out := make([]Association, 0, len(scores))
	for t, sc := range scores {
		if support[t] < minSupport {
			continue
		}
		out = append(out, Association{Tag: t, Score: sc, Support: support[t]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}
