package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/psp-framework/psp/internal/finance"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// faultySearcher fails after a configurable number of successful calls,
// injecting the transport failures a remote platform produces.
type faultySearcher struct {
	inner     social.Searcher
	successes int32
	calls     atomic.Int32 // the workflow fans queries out concurrently
	err       error
}

func (f *faultySearcher) Search(ctx context.Context, q social.Query) (*social.Page, error) {
	if f.calls.Add(1) > f.successes {
		return nil, f.err
	}
	return f.inner.Search(ctx, q)
}

func TestRunSocialPropagatesSearcherErrors(t *testing.T) {
	store, err := social.DefaultStore(1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("platform unavailable")
	for _, successes := range []int32{0, 3, 12} {
		fw, err := New(Config{Searcher: &faultySearcher{inner: store, successes: successes, err: boom}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = fw.RunSocial(context.Background(), SocialInput{
			Threats: []*tara.ThreatScenario{ecmThreat()},
		})
		if !errors.Is(err, boom) {
			t.Errorf("successes=%d: error = %v, want wrapped platform failure", successes, err)
		}
	}
}

func TestRunSocialHonoursContextCancellation(t *testing.T) {
	store, err := social.DefaultStore(1)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.RunSocial(ctx, SocialInput{}); err == nil {
		t.Error("cancelled context accepted")
	}
}

// emptySearcher returns no posts for any query: the cold-start situation
// before any corpus exists.
type emptySearcher struct{}

func (emptySearcher) Search(context.Context, social.Query) (*social.Page, error) {
	return &social.Page{}, nil
}

func TestRunSocialEmptyPlatform(t *testing.T) {
	fw, err := New(Config{Searcher: emptySearcher{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.RunSocial(context.Background(), SocialInput{
		Threats: []*tara.ThreatScenario{ecmThreat()},
	})
	if err != nil {
		t.Fatalf("empty platform should degrade gracefully: %v", err)
	}
	// All entries present with zero scores; no probabilities.
	for _, e := range res.Index.Entries {
		if e.Score != 0 || e.Probability != 0 {
			t.Errorf("entry %s has non-zero score on empty platform", e.Topic)
		}
	}
	// The tuning must fall back to the standard table: zero posts give
	// no evidence to retune on, and the threat classifies outsider.
	if len(res.Tunings) != 1 {
		t.Fatalf("tunings = %d", len(res.Tunings))
	}
	tuning := res.Tunings[0]
	if tuning.Insider {
		t.Error("zero-post threat classified insider")
	}
	if !tuning.Table.Equal(tara.StandardVectorTable()) {
		t.Error("zero-post tuning deviates from the standard table")
	}
}

func TestRunFinancialMissingListings(t *testing.T) {
	fw := newTestFramework(t)
	// A category with report/sales data but no listings must fail the
	// PPIA survey cleanly.
	_, err := fw.RunFinancial(FinancialInput{
		Category:    "ecm-reprogramming",
		Application: "car",
		Region:      "EU",
		Year:        2022,
		MarketKind:  finance.Monopolistic,
	})
	if err == nil {
		t.Error("missing listings accepted")
	}
}
