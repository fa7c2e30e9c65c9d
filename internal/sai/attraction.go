package sai

import (
	"fmt"
	"math"

	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/social"
)

// Weights controls the attraction mix of views, interactions and
// popularity — the three post properties the paper names as SAI inputs.
type Weights struct {
	// Views weighs passive reach, log-compressed.
	Views float64
	// Interactions weighs active engagement (likes, reposts, replies),
	// log-compressed.
	Interactions float64
	// Popularity weighs the engagement rate (interactions per view),
	// which rewards resonance independent of reach.
	Popularity float64
	// SentimentGate, when true, modulates attraction by sentiment:
	// positive posts amplify the signal, negative posts dampen it.
	// Disabling the gate is ablation A2.
	SentimentGate bool
}

// DefaultWeights returns the default attraction mix: interactions count
// double the views term, popularity is a strong tiebreaker, and the
// sentiment gate is on.
func DefaultWeights() Weights {
	return Weights{Views: 1, Interactions: 2, Popularity: 10, SentimentGate: true}
}

// Validate rejects negative weight components and an all-zero mix.
func (w Weights) Validate() error {
	if w.Views < 0 || w.Interactions < 0 || w.Popularity < 0 {
		return fmt.Errorf("sai: negative attraction weight: %+v", w)
	}
	if w.Views == 0 && w.Interactions == 0 && w.Popularity == 0 {
		return fmt.Errorf("sai: all-zero attraction weights")
	}
	return nil
}

// sentiment gate multipliers.
const (
	gatePositive = 1.2
	gateNeutral  = 1.0
	gateNegative = 0.5
)

// Scorer computes post attraction: the weighted engagement mix, gated by
// the sentiment of the post text when the gate is on.
type Scorer struct {
	weights  Weights
	analyzer *nlp.Analyzer
}

// NewScorer builds a Scorer; a nil analyzer uses the default lexicon.
func NewScorer(w Weights, analyzer *nlp.Analyzer) (*Scorer, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if analyzer == nil {
		analyzer = nlp.NewAnalyzer(nil)
	}
	return &Scorer{weights: w, analyzer: analyzer}, nil
}

// Weights returns the scorer's attraction mix.
func (s *Scorer) Weights() Weights { return s.weights }

// Attraction scores one post. The score is non-negative; zero-engagement
// posts still contribute a small floor so volume matters.
func (s *Scorer) Attraction(p *social.Post) float64 {
	var tokens []nlp.Token
	if s.weights.SentimentGate {
		tokens = nlp.Tokenize(p.Text)
	}
	return s.attraction(p, tokens)
}

// attraction scores one post from its tokens, which the sentiment gate
// reads (they may be nil when the gate is off).
func (s *Scorer) attraction(p *social.Post, tokens []nlp.Token) float64 {
	views := float64(p.Metrics.Views)
	inter := float64(p.Metrics.Interactions())
	popularity := 0.0
	if views > 0 {
		popularity = inter / views
	}
	score := s.weights.Views*math.Log1p(views) +
		s.weights.Interactions*math.Log1p(inter) +
		s.weights.Popularity*popularity
	if s.weights.SentimentGate {
		switch s.analyzer.ScoreTokens(tokens).Label {
		case nlp.SentimentPositive:
			score *= gatePositive
		case nlp.SentimentNegative:
			score *= gateNegative
		default:
			score *= gateNeutral
		}
	}
	return score
}

// Total sums the attraction of a post set.
func (s *Scorer) Total(posts []*social.Post) float64 {
	features := make([]PostFeatures, len(posts))
	for i, p := range posts {
		features[i].Attraction = s.Attraction(p)
	}
	return TotalAttraction(features)
}
