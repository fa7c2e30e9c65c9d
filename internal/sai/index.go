package sai

import (
	"fmt"
	"sort"

	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// Entry is one row of the Social Attraction Index: an attack topic with
// its attraction score, estimated attack probability and classification.
type Entry struct {
	// Topic names the attack ("DPF delete").
	Topic string
	// Tags are the hashtags that selected the topic's posts.
	Tags []string
	// Posts is the number of matched posts.
	Posts int
	// Score is the summed attraction of the matched posts.
	Score float64
	// Probability is the attack-probability estimation of Fig. 7
	// block 7: the topic's share of the total attraction across all
	// entries, in [0, 1].
	Probability float64
	// Insider reports the owner classification of the topic.
	Insider bool
	// VectorShares is the attraction share per attack vector across the
	// topic's classified posts.
	VectorShares map[tara.AttackVector]float64
}

// Index is a sorted Social Attraction Index list.
type Index struct {
	// Entries are sorted by descending score (ties by topic).
	Entries []Entry
}

// Builder computes Index values from grouped posts.
type Builder struct {
	scorer  *Scorer
	vectors *VectorClassifier
	owners  *OwnerClassifier
}

// NewBuilder wires a Builder; nil components use defaults.
func NewBuilder(scorer *Scorer, vectors *VectorClassifier, owners *OwnerClassifier) (*Builder, error) {
	if scorer == nil {
		var err error
		scorer, err = NewScorer(DefaultWeights(), nil)
		if err != nil {
			return nil, err
		}
	}
	if vectors == nil {
		vectors = NewVectorClassifier()
	}
	if owners == nil {
		owners = NewOwnerClassifier()
	}
	return &Builder{scorer: scorer, vectors: vectors, owners: owners}, nil
}

// Scorer returns the builder's attraction scorer.
func (b *Builder) Scorer() *Scorer { return b.scorer }

// TopicPosts groups the posts of one attack topic.
type TopicPosts struct {
	Topic string
	Tags  []string
	Posts []*social.Post
}

// Build computes the SAI over topic groups. Topics with no posts still
// appear with zero score so coverage gaps stay visible.
func (b *Builder) Build(groups []TopicPosts) (*Index, error) {
	entries := make([]Entry, 0, len(groups))
	for _, g := range groups {
		entries = append(entries, b.BuildEntry(g))
	}
	return AssembleIndex(entries)
}

// BuildEntry scores one topic group in isolation: everything but the
// Probability, which is a global normalization over all entries (see
// AssembleIndex). It is EntryOf over a fresh analysis of the group's
// posts; the incremental re-assessment path calls EntryOf directly with
// the features it memoizes per listed post.
func (b *Builder) BuildEntry(g TopicPosts) Entry {
	return EntryOf(g.Topic, g.Tags, b.AnalyzePosts(g.Posts))
}

// AssembleIndex normalizes per-topic entries into a sorted index:
// probabilities are each entry's share of the total attraction, summed
// in input order so the result is bit-identical however the entries
// were produced (fresh or memoized).
func AssembleIndex(entries []Entry) (*Index, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("sai: no topic groups")
	}
	out := make([]Entry, len(entries))
	copy(out, entries)
	var totalScore float64
	for i := range out {
		out[i].Probability = 0
		totalScore += out[i].Score
	}
	if totalScore > 0 {
		for i := range out {
			out[i].Probability = out[i].Score / totalScore
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Topic < out[j].Topic
	})
	return &Index{Entries: out}, nil
}

// VectorShares computes the attraction share of each attack vector over
// the classified posts of a set (see SharesOf).
func (b *Builder) VectorShares(posts []*social.Post) map[tara.AttackVector]float64 {
	return SharesOf(b.AnalyzePosts(posts))
}

// Top returns the highest-scoring entry, or an error for an empty index.
func (idx *Index) Top() (Entry, error) {
	if len(idx.Entries) == 0 {
		return Entry{}, fmt.Errorf("sai: empty index")
	}
	return idx.Entries[0], nil
}

// Insiders returns the insider entries in index order — the subset the
// weight retuning applies to (retuning outsider entries "does not make
// sense" per the paper).
func (idx *Index) Insiders() []Entry {
	var out []Entry
	for _, e := range idx.Entries {
		if e.Insider {
			out = append(out, e)
		}
	}
	return out
}
