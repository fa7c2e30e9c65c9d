package sai

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// PostFeatures is everything the index derives from one post: its
// attraction (sentiment gate applied), its attack vector and its owner
// classification. Posts are immutable, so features are a pure function
// of the post and the builder; the incremental re-assessment path keeps
// them per listed post and analyzes only posts new to a listing. The
// value is 16 bytes and holds no pointers, so a memo of one per listed
// post stays cheap.
type PostFeatures struct {
	// Attraction is the post's attraction score.
	Attraction float64
	// vector is the post's tara.AttackVector, stored narrow to keep the
	// value at 16 bytes; meaningful only when classified.
	vector     int8
	classified bool
	// Insider reports the post's owner classification.
	Insider bool
}

// Vector returns the post's attack vector and whether any method
// vocabulary was found.
func (f PostFeatures) Vector() (tara.AttackVector, bool) {
	return tara.AttackVector(f.vector), f.classified
}

// FeaturesLen is the byte length of a persisted PostFeatures.
const FeaturesLen = 9

// AppendFeatures appends f's persisted form: the attraction's IEEE 754
// bits, little-endian, then one byte holding the vector (bits 2 and up),
// the insider flag (bit 1) and the classified flag (bit 0).
func AppendFeatures(b []byte, f PostFeatures) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Attraction))
	meta := byte(f.vector) << 2
	if f.Insider {
		meta |= 2
	}
	if f.classified {
		meta |= 1
	}
	return append(b, meta)
}

// DecodeFeatures decodes the FeaturesLen bytes AppendFeatures wrote.
func DecodeFeatures(b []byte) (PostFeatures, error) {
	if len(b) != FeaturesLen {
		return PostFeatures{}, fmt.Errorf("sai: persisted features are %d bytes, want %d", len(b), FeaturesLen)
	}
	meta := b[8]
	v := tara.AttackVector(meta >> 2)
	if v > tara.VectorNetwork || (meta&1 == 0 && v != 0) {
		return PostFeatures{}, fmt.Errorf("sai: persisted features hold invalid vector byte %#x", meta)
	}
	return PostFeatures{
		Attraction: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		vector:     int8(v),
		classified: meta&1 != 0,
		Insider:    meta&2 != 0,
	}, nil
}

// AnalyzeTokens derives a post's features from its tokens (which must
// be nlp.Tokenize(p.Text)), for callers that also need the tokens for
// something else, such as the hashtags of a co-occurrence graph.
func (b *Builder) AnalyzeTokens(p *social.Post, tokens []nlp.Token) PostFeatures {
	words := nlp.NormalizeAll(tokens)
	v, ok := b.vectors.classifyWords(words)
	return PostFeatures{
		Attraction: b.scorer.attraction(p, tokens),
		vector:     int8(v),
		classified: ok,
		Insider:    b.owners.insiderWords(words),
	}
}

// AnalyzePosts analyzes a post set, one tokenization per post.
func (b *Builder) AnalyzePosts(posts []*social.Post) []PostFeatures {
	out := make([]PostFeatures, len(posts))
	for i, p := range posts {
		out[i] = b.AnalyzeTokens(p, nlp.Tokenize(p.Text))
	}
	return out
}

// EntryOf scores one topic group from its posts' features, in listing
// order: everything but the Probability (see AssembleIndex). Summation
// follows the features' order, so an entry built from memoized features
// is bit-identical to one built from a fresh analysis.
func EntryOf(topic string, tags []string, features []PostFeatures) Entry {
	return Entry{
		Topic:        topic,
		Tags:         append([]string(nil), tags...),
		Posts:        len(features),
		Score:        TotalAttraction(features),
		Insider:      MajorityInsider(features),
		VectorShares: SharesOf(features),
	}
}

// TotalAttraction sums the attraction of a feature set.
func TotalAttraction(features []PostFeatures) float64 {
	var total float64
	for _, f := range features {
		total += f.Attraction
	}
	return total
}

// MajorityInsider reports whether insider posts form the (weak)
// majority of a feature set.
func MajorityInsider(features []PostFeatures) bool {
	in := 0
	for _, f := range features {
		if f.Insider {
			in++
		}
	}
	return in*2 >= len(features)
}

// SharesOf computes the attraction share of each attack vector over the
// classified posts of a feature set. Unclassified posts are excluded.
// The shares sum to 1 when any post classifies.
func SharesOf(features []PostFeatures) map[tara.AttackVector]float64 {
	weights := make(map[tara.AttackVector]float64, 4)
	var total float64
	for _, f := range features {
		v, ok := f.Vector()
		if !ok {
			continue
		}
		weights[v] += f.Attraction
		total += f.Attraction
	}
	shares := make(map[tara.AttackVector]float64, 4)
	if total == 0 {
		return shares
	}
	for v, w := range weights {
		shares[v] = w / total
	}
	return shares
}
