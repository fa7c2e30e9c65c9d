package sai

import (
	"fmt"
	"sort"

	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/social"
)

// Learner implements the auto-learning strategy of Fig. 7 block 5: new
// attack hashtags are discovered through co-occurrence with the known
// keyword set, so future runs have no hashtag deficiencies.
type Learner struct {
	graph *nlp.CooccurrenceGraph
	// MinSupport filters candidate tags seen fewer than this many times
	// alongside seeds (default 3).
	MinSupport int
	// MinScore filters candidates whose summed conditional probability
	// against the seed set is below this value (default 0.05).
	MinScore float64
	// Blocklist holds tags never to learn (noise, poisoning defence).
	Blocklist map[string]bool
}

// NewLearner returns a Learner with default thresholds.
func NewLearner() *Learner {
	return &Learner{
		graph:      nlp.NewCooccurrenceGraph(),
		MinSupport: 3,
		MinScore:   0.05,
		Blocklist:  make(map[string]bool),
	}
}

// Observe feeds the hashtag sets of posts into the co-occurrence graph.
func (l *Learner) Observe(posts []*social.Post) {
	for _, p := range posts {
		l.graph.Observe(p.Hashtags())
	}
}

// ObserveGraph merges a pre-built co-occurrence graph into the learner —
// count-exact, so observing per-group graphs is indistinguishable from
// observing the groups' posts directly. The incremental workflow keeps
// one graph per keyword group and re-tokenizes only the groups whose
// posts changed.
func (l *Learner) ObserveGraph(g *nlp.CooccurrenceGraph) {
	l.graph.Merge(g)
}

// BuildGroupGraph tokenizes one post group into its own co-occurrence
// graph, suitable for ObserveGraph.
func BuildGroupGraph(posts []*social.Post) *nlp.CooccurrenceGraph {
	g := nlp.NewCooccurrenceGraph()
	for _, p := range posts {
		g.Observe(p.Hashtags())
	}
	return g
}

// Block adds tags to the blocklist (the paper's poisoning-resilience
// roadmap item).
func (l *Learner) Block(tags ...string) {
	for _, t := range tags {
		l.Blocklist[nlp.Normalize(t)] = true
	}
}

// Learn proposes up to maxNew new keywords associated with the seed set,
// strongest association first. Seeds and blocklisted tags never appear.
func (l *Learner) Learn(seeds []string, maxNew int) ([]string, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sai: no seed keywords to learn from")
	}
	if maxNew <= 0 {
		return nil, fmt.Errorf("sai: maxNew %d must be positive", maxNew)
	}
	assocs := l.graph.Associates(seeds, l.MinSupport)
	var out []string
	for _, a := range assocs {
		if a.Score < l.MinScore || l.Blocklist[a.Tag] {
			continue
		}
		out = append(out, a.Tag)
		if len(out) == maxNew {
			break
		}
	}
	return out, nil
}

// Attribute assigns each learned tag to the seed group it co-occurs with
// most. groups maps a group name to its seed tags; the result maps group
// name to its attributed new tags, sorted for determinism.
func (l *Learner) Attribute(learned []string, groups map[string][]string) map[string][]string {
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string][]string)
	for _, tag := range learned {
		bestGroup, bestCount := "", -1
		for _, name := range names {
			count := 0
			for _, seed := range groups[name] {
				count += l.graph.Count(tag, seed)
			}
			if count > bestCount {
				bestGroup, bestCount = name, count
			}
		}
		if bestGroup != "" && bestCount > 0 {
			out[bestGroup] = append(out[bestGroup], tag)
		}
	}
	for name := range out {
		sort.Strings(out[name])
	}
	return out
}
