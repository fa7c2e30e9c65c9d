package core

import (
	"encoding/json"
	"fmt"
	"runtime"

	"github.com/psp-framework/psp/internal/finance"
	"github.com/psp-framework/psp/internal/market"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
)

// Config wires the PSP framework's dependencies and tunables. Zero-value
// tunables take documented defaults; Searcher and Market are required
// only by the workflows that use them.
type Config struct {
	// Searcher is the social platform (in-process store or HTTP client).
	Searcher social.Searcher
	// Market is the sales/reports/listings dataset.
	Market *market.Dataset
	// Keywords is the attack keyword database; nil uses
	// DefaultKeywordDB.
	Keywords *KeywordDB
	// Weights is the SAI attraction mix; the zero value means
	// sai.DefaultWeights.
	Weights sai.Weights
	// Bands maps vector shares onto feasibility ratings; the zero value
	// means sai.DefaultRatingBands.
	Bands sai.RatingBands
	// FinanceBands maps demand ratios onto feasibility ratings; the zero
	// value means finance.DefaultThresholds.
	FinanceBands finance.Thresholds
	// LearnMax caps keywords learned per run (default 10, negative
	// disables learning).
	LearnMax int
	// PriceClusters is the k of the PPIA price clustering (default 3).
	PriceClusters int
	// Concurrency bounds the social workflow's parallel fan-out: the
	// keyword-group queries, auto-learning re-queries and per-threat
	// tunings run on a worker pool of this size. 0 means
	// runtime.GOMAXPROCS(0); 1 restores strictly sequential queries.
	// Result ordering is deterministic at any setting.
	Concurrency int
}

// Framework is the PSP framework instance.
type Framework struct {
	searcher     social.Searcher
	market       *market.Dataset
	keywords     *KeywordDB
	builder      *sai.Builder
	scorer       *sai.Scorer
	weights      sai.Weights
	bands        sai.RatingBands
	financeBands finance.Thresholds
	learnMax     int
	priceK       int
	concurrency  int
}

// New validates the configuration and builds a Framework.
func New(cfg Config) (*Framework, error) {
	keywords := cfg.Keywords
	if keywords == nil {
		var err error
		keywords, err = DefaultKeywordDB()
		if err != nil {
			return nil, err
		}
	}
	weights := cfg.Weights
	if weights == (sai.Weights{}) {
		weights = sai.DefaultWeights()
	}
	scorer, err := sai.NewScorer(weights, nil)
	if err != nil {
		return nil, err
	}
	builder, err := sai.NewBuilder(scorer, nil, nil)
	if err != nil {
		return nil, err
	}
	bands := cfg.Bands
	if bands == (sai.RatingBands{}) {
		bands = sai.DefaultRatingBands()
	}
	if err := bands.Validate(); err != nil {
		return nil, err
	}
	finBands := cfg.FinanceBands
	if finBands == (finance.Thresholds{}) {
		finBands = finance.DefaultThresholds()
	}
	if err := finBands.Validate(); err != nil {
		return nil, err
	}
	learnMax := cfg.LearnMax
	if learnMax == 0 {
		learnMax = 10
	}
	priceK := cfg.PriceClusters
	if priceK == 0 {
		priceK = 3
	}
	if priceK < 1 {
		return nil, fmt.Errorf("core: invalid price cluster count %d", priceK)
	}
	if cfg.Concurrency < 0 {
		return nil, fmt.Errorf("core: invalid concurrency %d", cfg.Concurrency)
	}
	concurrency := cfg.Concurrency
	if concurrency == 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	return &Framework{
		searcher:     cfg.Searcher,
		market:       cfg.Market,
		keywords:     keywords,
		builder:      builder,
		scorer:       scorer,
		weights:      weights,
		bands:        bands,
		financeBands: finBands,
		learnMax:     learnMax,
		priceK:       priceK,
		concurrency:  concurrency,
	}, nil
}

// Keywords returns the framework's keyword database (the live instance:
// social runs extend a clone, and PersistLearned merges results back).
func (f *Framework) Keywords() *KeywordDB { return f.keywords }

// AnalysisSignature fingerprints the configuration a social run's
// results depend on besides its input: the attraction weights, the
// rating bands, the learning cap and the keyword database. Persisted
// analysis state is valid only under the signature it was saved with.
func (f *Framework) AnalysisSignature() string {
	data, err := json.Marshal(struct {
		Weights  sai.Weights
		Bands    sai.RatingBands
		LearnMax int
		Keywords []*KeywordGroup
	}{f.weights, f.bands, f.learnMax, f.keywords.Groups()})
	if err != nil {
		// Plain data always marshals; a failure still yields a stable
		// signature that matches nothing saved.
		return fmt.Sprintf("unmarshalable: %v", err)
	}
	return string(data)
}

// Bands returns the share → rating bands in use.
func (f *Framework) Bands() sai.RatingBands { return f.bands }

// Concurrency returns the resolved worker-pool size of the social
// workflow's query fan-out.
func (f *Framework) Concurrency() int { return f.concurrency }
