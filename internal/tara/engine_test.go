package tara

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// resultsEqual compares two result sets by value (not pointer).
func resultsEqual(a, b []*ThreatResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(*a[i], *b[i]) {
			return false
		}
	}
	return true
}

// mustRun runs the analysis, failing the test on error.
func mustRun(t *testing.T, a *Analysis) []*ThreatResult {
	t.Helper()
	res, err := a.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestIncrementalRunReusesCleanResults(t *testing.T) {
	a := ecmAnalysis()
	first := mustRun(t, a)
	if got := a.RatingCalls(); got != 2 {
		t.Fatalf("cold run rating calls = %d, want 2", got)
	}

	// A second run without mutations rates nothing and returns the
	// memoized results pointer-identically.
	second := mustRun(t, a)
	if got := a.RatingCalls(); got != 2 {
		t.Fatalf("no-op rerun rating calls = %d, want 2", got)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("result %d not reused pointer-identically", i)
		}
	}

	// Mutating TS-02's subgraph re-rates only TS-02.
	if err := a.UpsertPath(&AttackPath{
		ID: "AP-02", ThreatID: "TS-02",
		Steps: []AttackStep{{Description: "splice into CAN-PT", Vector: VectorPhysical}},
	}); err != nil {
		t.Fatalf("UpsertPath: %v", err)
	}
	third := mustRun(t, a)
	if got := a.RatingCalls(); got != 3 {
		t.Fatalf("delta rerun rating calls = %d, want 3", got)
	}
	cold := mustRun(t, a.Clone())
	if !resultsEqual(third, cold) {
		t.Fatalf("incremental results diverge from cold run:\n inc=%+v\ncold=%+v", third[0], cold[0])
	}
	// TS-01 was clean: its result must be the same pointer as before.
	for _, r := range third {
		if r.Threat.ID == "TS-01" {
			for _, prev := range second {
				if prev.Threat.ID == "TS-01" && prev != r {
					t.Fatal("clean threat TS-01 was re-rated")
				}
			}
		}
	}
}

func TestDirtyPropagation(t *testing.T) {
	a := ecmAnalysis()
	mustRun(t, a)
	base := a.RatingCalls()

	// Damage mutation dirties only threats linking it.
	if err := a.UpsertDamage(&DamageScenario{
		ID: "DS-02", Description: "worse torque loss", AssetIDs: []string{"ECM-CAN"},
		Impacts: map[ImpactCategory]ImpactRating{CategorySafety: ImpactSevere, CategoryOperational: ImpactMajor},
	}); err != nil {
		t.Fatalf("UpsertDamage: %v", err)
	}
	mustRun(t, a)
	if got := a.RatingCalls() - base; got != 1 {
		t.Fatalf("damage mutation re-rated %d threats, want 1", got)
	}

	// Asset mutation dirties threats referencing it directly or via a
	// damage scenario.
	base = a.RatingCalls()
	if err := a.UpsertAsset(&Asset{
		ID: "ECM-FW", Name: "ECM firmware v2",
		Properties: []SecurityProperty{PropertyIntegrity},
		ECU:        "ECM",
	}); err != nil {
		t.Fatalf("UpsertAsset: %v", err)
	}
	mustRun(t, a)
	if got := a.RatingCalls() - base; got != 1 {
		t.Fatalf("asset mutation re-rated %d threats, want 1 (TS-01 only)", got)
	}

	// Model swap dirties everything.
	base = a.RatingCalls()
	a.Matrix = StandardRiskMatrix()
	mustRun(t, a)
	if got := a.RatingCalls() - base; got != 2 {
		t.Fatalf("model swap re-rated %d threats, want 2", got)
	}
}

func TestDirectFieldMutationDetected(t *testing.T) {
	a := ecmAnalysis()
	first := mustRun(t, a)

	// Legacy pattern: assign a model field directly, as cmd/psp does
	// with PSP-tuned tables.
	tuned, err := NewVectorTable("tuned", map[AttackVector]FeasibilityRating{
		VectorPhysical: FeasibilityHigh, VectorLocal: FeasibilityHigh,
		VectorAdjacent: FeasibilityHigh, VectorNetwork: FeasibilityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.VectorModel = tuned
	second := mustRun(t, a)
	if resultsEqual(first, second) {
		t.Fatal("vector model swap had no effect on results")
	}
	cold := mustRun(t, a.Clone())
	if !resultsEqual(second, cold) {
		t.Fatal("results after model swap diverge from cold run")
	}

	// Legacy builder append after a run triggers a full rebuild.
	a.AddThreat(&ThreatScenario{
		ID: "TS-03", Name: "late addition", DamageIDs: []string{"DS-01"},
		Property: PropertyIntegrity, STRIDE: Tampering, Vector: VectorNetwork,
	})
	third := mustRun(t, a)
	if len(third) != 3 {
		t.Fatalf("got %d results after AddThreat, want 3", len(third))
	}
	if !resultsEqual(third, mustRun(t, a.Clone())) {
		t.Fatal("results after AddThreat diverge from cold run")
	}
}

func TestMutationEagerValidation(t *testing.T) {
	a := ecmAnalysis()
	before := mustRun(t, a)

	cases := []struct {
		name string
		op   func() error
	}{
		{"remove referenced asset", func() error { return a.RemoveAsset("ECM-FW") }},
		{"remove referenced damage", func() error { return a.RemoveDamage("DS-01") }},
		{"remove unknown threat", func() error { return a.RemoveThreat("TS-99") }},
		{"remove unknown path", func() error { return a.RemovePath("AP-99") }},
		{"upsert damage with unknown asset", func() error {
			return a.UpsertDamage(&DamageScenario{ID: "DS-03", AssetIDs: []string{"nope"},
				Impacts: map[ImpactCategory]ImpactRating{CategorySafety: ImpactMajor}})
		}},
		{"upsert threat with unknown damage", func() error {
			return a.UpsertThreat(&ThreatScenario{ID: "TS-03", Name: "x", DamageIDs: []string{"nope"},
				Property: PropertyIntegrity, STRIDE: Tampering, Vector: VectorLocal})
		}},
		{"upsert path with unknown threat", func() error {
			return a.UpsertPath(&AttackPath{ID: "AP-09", ThreatID: "nope",
				Steps: []AttackStep{{Vector: VectorLocal}}})
		}},
		{"upsert invalid asset", func() error { return a.UpsertAsset(&Asset{ID: "A", Name: ""}) }},
		{"set nil vector model", func() error { return a.SetVectorModel(nil) }},
		{"set table for unknown threat", func() error {
			_, err := a.SetThreatTable("TS-99", StandardVectorTable())
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.op(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// Failed mutations leave the model and results untouched.
	after := mustRun(t, a)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("failed mutations invalidated result %d", i)
		}
	}
}

func TestRemoveThreatCascadesSubgraph(t *testing.T) {
	a := ecmAnalysis()
	mustRun(t, a)
	if err := a.RemoveThreat("TS-01"); err != nil {
		t.Fatalf("RemoveThreat: %v", err)
	}
	if len(a.Paths) != 0 {
		t.Fatalf("paths not cascaded: %d left", len(a.Paths))
	}
	res := mustRun(t, a)
	if len(res) != 1 || res[0].Threat.ID != "TS-02" {
		t.Fatalf("unexpected results after removal: %+v", res)
	}
	if !resultsEqual(res, mustRun(t, a.Clone())) {
		t.Fatal("results after threat removal diverge from cold run")
	}
}

func TestSetThreatTable(t *testing.T) {
	a := ecmAnalysis()
	mustRun(t, a)
	base := a.RatingCalls()

	hot, err := NewVectorTable("psp-tuned", map[AttackVector]FeasibilityRating{
		VectorPhysical: FeasibilityHigh, VectorLocal: FeasibilityHigh,
		VectorAdjacent: FeasibilityMedium, VectorNetwork: FeasibilityLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	changed, err := a.SetThreatTable("TS-01", hot)
	if err != nil || !changed {
		t.Fatalf("SetThreatTable: changed=%v err=%v", changed, err)
	}
	res := mustRun(t, a)
	if got := a.RatingCalls() - base; got != 1 {
		t.Fatalf("table override re-rated %d threats, want 1", got)
	}
	if !resultsEqual(res, mustRun(t, a.Clone())) {
		t.Fatal("override results diverge from cold run")
	}

	// A rating-equal table is a no-op.
	same, err := NewVectorTable("same ratings, new name", hot.Ratings())
	if err != nil {
		t.Fatal(err)
	}
	changed, err = a.SetThreatTable("TS-01", same)
	if err != nil || changed {
		t.Fatalf("equal table: changed=%v err=%v, want false nil", changed, err)
	}
	base = a.RatingCalls()
	mustRun(t, a)
	if got := a.RatingCalls() - base; got != 0 {
		t.Fatalf("equal table re-rated %d threats, want 0", got)
	}

	// Clearing dirties the threat again.
	changed, err = a.SetThreatTable("TS-01", nil)
	if err != nil || !changed {
		t.Fatalf("clear: changed=%v err=%v", changed, err)
	}
	res = mustRun(t, a)
	if !resultsEqual(res, mustRun(t, a.Clone())) {
		t.Fatal("cleared-override results diverge from cold run")
	}
}

func TestApplyOpsPrefixSemantics(t *testing.T) {
	a := ecmAnalysis()
	mustRun(t, a)
	ops := []Op{
		{Kind: OpUpsertDamage, Damage: &DamageScenario{
			ID: "DS-03", AssetIDs: []string{"ECM-FW"},
			Impacts: map[ImpactCategory]ImpactRating{CategoryPrivacy: ImpactModerate},
		}},
		{Kind: OpRemoveAsset, ID: "ECM-FW"}, // fails: referenced
		{Kind: OpRemoveDamage, ID: "DS-03"}, // never applied
	}
	applied, err := ApplyOps(a, ops)
	if err == nil || applied != 1 {
		t.Fatalf("applied=%d err=%v, want 1 and an error", applied, err)
	}
	if a.Damage("DS-03") == nil {
		t.Fatal("applied prefix was rolled back")
	}
	if !resultsEqual(mustRun(t, a), mustRun(t, a.Clone())) {
		t.Fatal("post-prefix results diverge from cold run")
	}
}

func TestOpsJSONRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpUpsertAsset, Asset: &Asset{ID: "A-1", Name: "a",
			Properties: []SecurityProperty{PropertyIntegrity}}},
		{Kind: OpUpsertThreat, Threat: &ThreatScenario{ID: "TS-09", Name: "t",
			DamageIDs: []string{"DS-01"}, Property: PropertyIntegrity,
			STRIDE: Tampering, Vector: VectorNetwork}},
		{Kind: OpRemovePath, ID: "AP-01"},
		{Kind: OpSetThreatTable, ID: "TS-01", Table: StandardVectorTable()},
	}
	buf, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeOps(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("got %d ops back, want %d", len(back), len(ops))
	}
	if back[0].Asset.ID != "A-1" || back[1].Threat.STRIDE != Tampering ||
		back[2].ID != "AP-01" || !back[3].Table.Equal(StandardVectorTable()) {
		t.Fatalf("round trip mangled ops: %+v", back)
	}
}

func TestThreatTablesJSONRoundTrip(t *testing.T) {
	a := ecmAnalysis()
	hot, err := NewVectorTable("tuned", map[AttackVector]FeasibilityRating{
		VectorPhysical: FeasibilityHigh, VectorLocal: FeasibilityHigh,
		VectorAdjacent: FeasibilityHigh, VectorNetwork: FeasibilityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetThreatTable("TS-01", hot); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ThreatTables["TS-01"] == nil || !back.ThreatTables["TS-01"].Equal(hot) {
		t.Fatal("threat table override lost in round trip")
	}
	if !resultsEqual(mustRun(t, a), mustRun(t, back)) {
		t.Fatal("round-tripped analysis rates differently")
	}
}

func TestGenerateAnalysisDeterministic(t *testing.T) {
	spec := GenSpec{Assets: 20, Damages: 30, Threats: 40, PathsPerThreat: 2, Seed: 7}
	a, err := GenerateAnalysis(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateAnalysis(spec)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := mustRun(t, a), mustRun(t, b)
	if !resultsEqual(ra, rb) {
		t.Fatal("same spec generated different models")
	}
	var wa, wb bytes.Buffer
	if err := a.WriteJSON(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatal("same spec serialized differently")
	}
}

func TestRegistryTenantLifecycle(t *testing.T) {
	reg := NewRegistry()
	ten, err := reg.Create("ecm", ecmAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("ecm", ecmAnalysis()); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := reg.Create("", ecmAnalysis()); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	select {
	case <-reg.Notify():
	default:
		t.Fatal("create did not notify")
	}
	if got := reg.TakeDirty(); len(got) != 1 || got[0] != "ecm" {
		t.Fatalf("TakeDirty = %v", got)
	}

	// Sequential rating pass.
	now := time.Unix(100, 0)
	cur, err := ten.Rate(now, func(p *Plan) ([]*ThreatResult, error) {
		rated := make([]*ThreatResult, len(p.Dirty))
		for i, id := range p.Dirty {
			r, err := p.Rate(id)
			if err != nil {
				return nil, err
			}
			rated[i] = r
		}
		return p.Commit(rated)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 1 || cur.Generation != 1 || cur.RatedThreats != 2 || cur.TotalThreats != 2 {
		t.Fatalf("assessment %+v", cur)
	}
	if ten.Assessment() != cur {
		t.Fatal("Assessment() is not the published snapshot")
	}
	if cur.Concept == nil || len(cur.Concept.Goals)+len(cur.Concept.Claims) == 0 {
		t.Fatal("concept derivation missing")
	}

	// Versioned mutation.
	v, err := ten.MutateAt(1, func(a *Analysis) (bool, error) {
		return true, a.RemovePath("AP-01")
	})
	if err != nil || v != 2 {
		t.Fatalf("MutateAt: v=%d err=%v", v, err)
	}
	if _, err := ten.MutateAt(1, func(a *Analysis) (bool, error) { return true, nil }); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale MutateAt error = %v, want ErrVersionMismatch", err)
	}
	if got := reg.TakeDirty(); len(got) != 1 || got[0] != "ecm" {
		t.Fatalf("TakeDirty after mutation = %v", got)
	}

	if !reg.Remove("ecm") || reg.Len() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestValidateStillCatchesInPlaceCorruption(t *testing.T) {
	a := ecmAnalysis()
	mustRun(t, a)
	a.Threats[0].Vector = AttackVector(99)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "invalid attack vector") {
		t.Fatalf("Validate after in-place corruption = %v", err)
	}
}
