package sai

import (
	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// vectorKeywords maps method vocabulary to attack vectors. The buckets
// are lexically disjoint so a single strong hit is decisive; ties resolve
// toward the physically closer vector (the conservative choice for an
// insider-dominated domain).
var vectorKeywords = map[tara.AttackVector][]string{
	tara.VectorPhysical: {
		"bench", "solder", "soldered", "desolder", "bdm", "jtag", "boot",
		"clamp", "clamped", "teardown", "eeprom", "probe", "hotwired",
		"harness", "desoldered",
	},
	tara.VectorLocal: {
		"obd", "obd2", "dongle", "diagnostic", "connector", "plug-in",
		"cab-port", "seat",
	},
	tara.VectorAdjacent: {
		"bluetooth", "wifi", "wireless", "paired", "relay", "fob",
		"keyfob", "bridged",
	},
	tara.VectorNetwork: {
		"ota", "remote", "cloud", "telematics", "sim", "internet",
		"server", "backend",
	},
}

// VectorClassifier assigns posts to ISO-21434 attack vectors from their
// method vocabulary.
type VectorClassifier struct {
	index map[string]tara.AttackVector
}

// NewVectorClassifier returns a classifier with the built-in vocabulary.
func NewVectorClassifier() *VectorClassifier {
	idx := make(map[string]tara.AttackVector)
	for v, words := range vectorKeywords {
		for _, w := range words {
			idx[w] = v
		}
	}
	return &VectorClassifier{index: idx}
}

// Classify returns the attack vector of a post and whether any method
// vocabulary was found. Scoring counts keyword hits per vector; ties
// resolve toward the closer (lower-valued) vector.
func (c *VectorClassifier) Classify(p *social.Post) (tara.AttackVector, bool) {
	return c.classifyWords(nlp.NormalizeAll(nlp.Tokenize(p.Text)))
}

// classifyWords is Classify over a post's normalized word and hashtag
// terms (nlp.NormalizeAll of its tokens).
func (c *VectorClassifier) classifyWords(words []string) (tara.AttackVector, bool) {
	var counts [tara.VectorNetwork + 1]int
	for _, w := range words {
		if v, ok := c.index[w]; ok {
			counts[v]++
		}
	}
	best, bestCount := tara.AttackVector(0), 0
	for _, v := range tara.AllVectors() { // ascending: closer vectors win ties
		if counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	if bestCount == 0 {
		return 0, false
	}
	return best, true
}

// insider/outsider vocabulary. Outsider markers describe theft and
// covert compromise and weigh double: a single theft marker outvotes a
// generic ownership marker.
var (
	insiderMarkers = []string{
		"my", "gains", "install", "installed", "kit", "delete", "removal",
		"emulator", "tune", "tuning", "savings", "remap", "flashed",
		"upgrade", "own",
	}
	outsiderMarkers = []string{
		"stolen", "stole", "theft", "thief", "relay", "cloned", "clone",
		"fob", "hotwired", "jammer", "blocker", "tracker", "broke",
	}
	outsiderWeight = 2
)

// OwnerClassifier separates insider (owner-approved) from outsider
// (owner-oblivious) posts — Fig. 7 blocks 8–9. The paper's definition:
// insiders are all attacks the owner knows about and approves, even when
// third parties execute them.
type OwnerClassifier struct {
	insider  map[string]bool
	outsider map[string]bool
}

// NewOwnerClassifier returns a classifier with the built-in vocabulary.
func NewOwnerClassifier() *OwnerClassifier {
	in := make(map[string]bool, len(insiderMarkers))
	for _, w := range insiderMarkers {
		in[w] = true
	}
	out := make(map[string]bool, len(outsiderMarkers))
	for _, w := range outsiderMarkers {
		out[w] = true
	}
	return &OwnerClassifier{insider: in, outsider: out}
}

// IsInsider classifies one post. Ties resolve to insider, matching the
// paper's observation that most threat scenarios on social media are
// insider.
func (c *OwnerClassifier) IsInsider(p *social.Post) bool {
	return c.insiderWords(nlp.NormalizeAll(nlp.Tokenize(p.Text)))
}

// insiderWords is IsInsider over a post's normalized word and hashtag
// terms (nlp.NormalizeAll of its tokens).
func (c *OwnerClassifier) insiderWords(words []string) bool {
	inScore, outScore := 0, 0
	for _, w := range words {
		if c.insider[w] {
			inScore++
		}
		if c.outsider[w] {
			outScore += outsiderWeight
		}
	}
	return inScore >= outScore
}

// MajorityInsider classifies a post set: it reports whether insider
// posts form the (weak) majority.
func (c *OwnerClassifier) MajorityInsider(posts []*social.Post) bool {
	features := make([]PostFeatures, len(posts))
	for i, p := range posts {
		features[i].Insider = c.IsInsider(p)
	}
	return MajorityInsider(features)
}
