package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/psp-framework/psp/internal/tara"
)

func taraFramework(t *testing.T, concurrency int) *Framework {
	t.Helper()
	f, err := New(Config{Concurrency: concurrency})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// resultsJSON renders a result set in a stable byte form for the
// byte-identity comparison the equivalence property demands.
func resultsJSON(t *testing.T, results []*tara.ThreatResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&buf, "%s|%d|%d|%d|%d|%d|%d\n",
			r.Threat.ID, r.Impact, r.Feasibility, r.Risk, r.Treatment, r.CAL, r.DominantVector)
	}
	return buf.Bytes()
}

func conceptJSON(t *testing.T, results []*tara.ThreatResult) []byte {
	t.Helper()
	if len(results) == 0 {
		return nil
	}
	c, err := tara.DeriveConcept(results)
	if err != nil {
		t.Fatalf("DeriveConcept: %v", err)
	}
	var buf bytes.Buffer
	for _, g := range c.Goals {
		fmt.Fprintf(&buf, "G%s|%s|%d|%d\n", g.ID, g.Statement, g.CAL, g.Risk)
	}
	for _, cl := range c.Claims {
		fmt.Fprintf(&buf, "C%s|%s\n", cl.ID, cl.Rationale)
	}
	return buf.Bytes()
}

// randomMutation applies one pseudo-random mutation through the
// incremental API and returns a description for failure messages.
// Mutations that fail eager validation (e.g. removing a referenced
// entity) are fine: they must leave the model untouched.
func randomMutation(a *tara.Analysis, rng *rand.Rand, seq int) string {
	pick := func(n int) int { return rng.Intn(n) }
	switch pick(10) {
	case 0:
		as := tara.GenAsset(fmt.Sprintf("A-%03d", pick(25)), rng)
		a.UpsertAsset(as)
		return "upsert asset " + as.ID
	case 1:
		if len(a.Item.Assets) > 1 {
			id := a.Item.Assets[pick(len(a.Item.Assets))].ID
			a.RemoveAsset(id)
			return "remove asset " + id
		}
	case 2:
		d := tara.GenDamage(fmt.Sprintf("DS-%03d", pick(25)), a.Item.Assets, rng)
		a.UpsertDamage(d)
		return "upsert damage " + d.ID
	case 3:
		if len(a.Damages) > 0 {
			id := a.Damages[pick(len(a.Damages))].ID
			a.RemoveDamage(id)
			return "remove damage " + id
		}
	case 4:
		if len(a.Damages) > 0 {
			th := tara.GenThreat(fmt.Sprintf("TS-%03d", pick(25)), a.Damages, a.Item.Assets, rng)
			a.UpsertThreat(th)
			return "upsert threat " + th.ID
		}
	case 5:
		if len(a.Threats) > 1 {
			id := a.Threats[pick(len(a.Threats))].ID
			a.RemoveThreat(id)
			return "remove threat " + id
		}
	case 6:
		if len(a.Threats) > 0 {
			tid := a.Threats[pick(len(a.Threats))].ID
			p := tara.GenPath(fmt.Sprintf("AP-%03d", seq), tid, rng)
			a.UpsertPath(p)
			return "upsert path " + p.ID
		}
	case 7:
		if len(a.Paths) > 0 {
			id := a.Paths[pick(len(a.Paths))].ID
			a.RemovePath(id)
			return "remove path " + id
		}
	case 8:
		if len(a.Threats) > 0 {
			tid := a.Threats[pick(len(a.Threats))].ID
			ratings := map[tara.AttackVector]tara.FeasibilityRating{
				tara.VectorPhysical: tara.FeasibilityRating(1 + pick(4)),
				tara.VectorLocal:    tara.FeasibilityRating(1 + pick(4)),
				tara.VectorAdjacent: tara.FeasibilityRating(1 + pick(4)),
				tara.VectorNetwork:  tara.FeasibilityRating(1 + pick(4)),
			}
			tbl, err := tara.NewVectorTable(fmt.Sprintf("tuned-%d", seq), ratings)
			if err == nil {
				a.SetThreatTable(tid, tbl)
			}
			return "set threat table " + tid
		}
	case 9:
		bands := tara.StandardPotentialThresholds()
		bands.HighMax += pick(3)
		bands.MediumMax += pick(3)
		if bands.Validate() == nil {
			a.PotentialBands = bands
		}
		return "set potential bands"
	}
	return "noop"
}

// TestIncrementalEqualsColdProperty drives random mutation sequences
// through the incremental engine at pool sizes 1, 4 and 8 and checks
// after every step that the parallel incremental results — and the
// derived concept — are byte-identical to a cold Run of a fresh clone.
func TestIncrementalEqualsColdProperty(t *testing.T) {
	for _, pool := range []int{1, 4, 8} {
		pool := pool
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			f := taraFramework(t, pool)
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				a, err := tara.GenerateAnalysis(tara.GenSpec{
					Assets: 12, Damages: 15, Threats: 20, PathsPerThreat: 2, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for step := 0; step < 30; step++ {
					desc := randomMutation(a, rng, step)
					p, err := a.Plan()
					if err != nil {
						t.Fatalf("seed %d step %d (%s): plan: %v", seed, step, desc, err)
					}
					inc, err := f.RatePlan(ctx, p)
					if err != nil {
						t.Fatalf("seed %d step %d (%s): incremental: %v", seed, step, desc, err)
					}
					cold, err := a.Clone().Run()
					if err != nil {
						t.Fatalf("seed %d step %d (%s): cold: %v", seed, step, desc, err)
					}
					if !bytes.Equal(resultsJSON(t, inc), resultsJSON(t, cold)) {
						t.Fatalf("seed %d step %d (%s): results diverge\ninc:\n%s\ncold:\n%s",
							seed, step, desc, resultsJSON(t, inc), resultsJSON(t, cold))
					}
					if !bytes.Equal(conceptJSON(t, inc), conceptJSON(t, cold)) {
						t.Fatalf("seed %d step %d (%s): concepts diverge", seed, step, desc)
					}
				}
			}
		})
	}
}

func TestRatePlanDeterministicAcrossPoolSizes(t *testing.T) {
	var want []byte
	for _, pool := range []int{1, 4, 8} {
		a, err := tara.GenerateAnalysis(tara.GenSpec{
			Assets: 10, Damages: 12, Threats: 30, PathsPerThreat: 2, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := taraFramework(t, pool)
		p, err := a.Plan()
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RatePlan(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got := resultsJSON(t, res)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("pool %d produced different results", pool)
		}
	}
}

func TestRatePlanCancellation(t *testing.T) {
	a, err := tara.GenerateAnalysis(tara.GenSpec{
		Assets: 10, Damages: 10, Threats: 50, PathsPerThreat: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := taraFramework(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := a.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RatePlan(ctx, p); err == nil {
		t.Fatal("cancelled rating succeeded")
	}
	// The dirty set survives a failed pass: the next rating still
	// covers every threat and matches a cold run.
	if p, err = a.Plan(); err != nil {
		t.Fatal(err)
	}
	res, err := f.RatePlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := a.Clone().Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultsJSON(t, res), resultsJSON(t, cold)) {
		t.Fatal("results after retry diverge from cold run")
	}
}

func TestApplyTunings(t *testing.T) {
	a, err := tara.GenerateAnalysis(tara.GenSpec{
		Assets: 5, Damages: 5, Threats: 5, PathsPerThreat: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	base := a.RatingCalls()

	hot, err := tara.NewVectorTable("sai", map[tara.AttackVector]tara.FeasibilityRating{
		tara.VectorPhysical: tara.FeasibilityHigh, tara.VectorLocal: tara.FeasibilityHigh,
		tara.VectorAdjacent: tara.FeasibilityHigh, tara.VectorNetwork: tara.FeasibilityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	tunings := []*ThreatTuning{
		{Threat: a.Threats[0], Table: hot},
		{Threat: &tara.ThreatScenario{ID: "TS-UNRELATED"}, Table: hot}, // not in this analysis
		nil,
	}
	changed, err := ApplyTunings(a, tunings)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != a.Threats[0].ID {
		t.Fatalf("changed = %v", changed)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if got := a.RatingCalls() - base; got != 1 {
		t.Fatalf("tuning re-rated %d threats, want 1", got)
	}

	// Re-applying the same (rating-equal) tunings is a no-op.
	changed, err = ApplyTunings(a, tunings)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("re-apply changed %v, want nothing", changed)
	}
}
