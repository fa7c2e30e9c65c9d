package social

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/psp-framework/psp/internal/nlp"
)

// Region is a coarse market region tag attached to posts.
type Region string

// Regions used by the synthetic corpus.
const (
	RegionEurope       Region = "EU"
	RegionNorthAmerica Region = "NA"
	RegionAsiaPacific  Region = "APAC"
	RegionOther        Region = "OTHER"
)

// Metrics carries the engagement counters of a post — the raw material
// of the Social Attraction Index.
type Metrics struct {
	Views   int `json:"views"`
	Likes   int `json:"likes"`
	Reposts int `json:"reposts"`
	Replies int `json:"replies"`
}

// Interactions returns the total active engagement (likes + reposts +
// replies), as opposed to passive views.
func (m Metrics) Interactions() int { return m.Likes + m.Reposts + m.Replies }

// Post is one social-media post.
type Post struct {
	// ID is unique within a store.
	ID string `json:"id"`
	// Author is an opaque handle.
	Author string `json:"author"`
	// Text is the post body, hashtags included.
	Text string `json:"text"`
	// CreatedAt is the posting instant (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Region is the coarse origin region.
	Region Region `json:"region"`
	// Metrics carries the engagement counters.
	Metrics Metrics `json:"metrics"`
}

// Validate checks the minimal invariants a stored post must satisfy.
func (p *Post) Validate() error {
	if strings.TrimSpace(p.ID) == "" {
		return fmt.Errorf("social: post with empty ID")
	}
	if strings.TrimSpace(p.Text) == "" {
		return fmt.Errorf("social: post %s: empty text", p.ID)
	}
	if p.CreatedAt.IsZero() {
		return fmt.Errorf("social: post %s: zero timestamp", p.ID)
	}
	if p.Metrics.Views < 0 || p.Metrics.Likes < 0 || p.Metrics.Reposts < 0 || p.Metrics.Replies < 0 {
		return fmt.Errorf("social: post %s: negative engagement counter", p.ID)
	}
	return nil
}

// Hashtags returns the normalized hashtags of the post text.
func (p *Post) Hashtags() []string {
	return nlp.Hashtags(nlp.Tokenize(p.Text))
}

// Terms returns the normalized word and hashtag terms of the post text,
// for keyword matching.
func (p *Post) Terms() map[string]bool {
	tokens := nlp.Tokenize(p.Text)
	set := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		if t.Kind == nlp.TokenWord || t.Kind == nlp.TokenHashtag {
			set[nlp.Normalize(t.Text)] = true
		}
	}
	return set
}

// profile tokenizes a post once into what the store indexes it under:
// its distinct normalized hashtags, in first-occurrence order, and its
// normalized word and hashtag term set (a superset of the tags).
func profile(p *Post) PostProfile {
	tokens := nlp.Tokenize(p.Text)
	pp := PostProfile{post: p, terms: make(map[string]bool, len(tokens))}
	for _, t := range tokens {
		if t.Kind != nlp.TokenWord && t.Kind != nlp.TokenHashtag {
			continue
		}
		w := nlp.Normalize(t.Text)
		if t.Kind == nlp.TokenHashtag && !slices.Contains(pp.tags, w) {
			pp.tags = append(pp.tags, w)
		}
		pp.terms[w] = true
	}
	return pp
}
