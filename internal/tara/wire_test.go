package tara

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the wire golden under testdata/")

// wireAnalysis is a hand-built analysis carrying what GenerateAnalysis
// never emits: a damage with several impact categories, descriptions
// on every entity, keywords, several attacker profiles, a step without
// a potential profile next to one with, a custom vector model and a
// per-threat table.
func wireAnalysis(t *testing.T) *Analysis {
	t.Helper()
	a := NewAnalysis(&Item{
		Name:        "Engine Control Module",
		Description: "Powertrain ECU on the CAN powertrain subnet",
		Assets: []*Asset{
			{ID: "ECM-FW", Name: "ECM firmware", Description: "Firmware and calibration maps",
				Properties: []SecurityProperty{PropertyIntegrity, PropertyAuthenticity, PropertyNonRepudiation}, ECU: "ECM"},
			{ID: "ECM-CAN", Name: "Powertrain CAN traffic",
				Properties: []SecurityProperty{PropertyAvailability, PropertyConfidentiality}},
		},
	})
	a.AddDamage(&DamageScenario{
		ID: "DS-01", Description: "Emission controls defeated",
		AssetIDs: []string{"ECM-FW"},
		Impacts: map[ImpactCategory]ImpactRating{
			CategorySafety: ImpactModerate, CategoryFinancial: ImpactMajor,
			CategoryOperational: ImpactNegligible, CategoryPrivacy: ImpactSevere,
		},
	})
	a.AddDamage(&DamageScenario{
		ID:      "DS-02",
		Impacts: map[ImpactCategory]ImpactRating{CategorySafety: ImpactSevere},
	})
	a.AddThreat(&ThreatScenario{
		ID: "TS-01", Name: "ECM reprogramming", Description: "Owner-approved reflash",
		DamageIDs: []string{"DS-01", "DS-02"}, AssetIDs: []string{"ECM-FW"},
		Property: PropertyIntegrity, STRIDE: ElevationOfPrivilege,
		Profiles: []AttackerProfile{ProfileInsider, ProfileRational, ProfileLocal},
		Vector:   VectorPhysical, Keywords: []string{"chiptuning", "#ecm reflash"},
	})
	a.AddThreat(&ThreatScenario{
		ID: "TS-02", Name: "CAN DoS", DamageIDs: []string{"DS-02"},
		Property: PropertyAvailability, STRIDE: DenialOfService, Vector: VectorAdjacent,
	})
	a.AddPath(&AttackPath{ID: "AP-01", ThreatID: "TS-01", Steps: []AttackStep{
		{Description: "gain OBD access", Vector: VectorPhysical},
		{Vector: VectorLocal, Potential: &AttackPotentialInput{
			Time: TimeOneWeek, Expertise: ExpertiseExpert, Knowledge: KnowledgeConfidential,
			Window: WindowDifficult, Equipment: EquipmentMultipleBespoke,
		}},
	}})
	model, err := NewVectorTable("PSP insider", map[AttackVector]FeasibilityRating{
		VectorPhysical: FeasibilityHigh, VectorLocal: FeasibilityMedium,
		VectorAdjacent: FeasibilityLow, VectorNetwork: FeasibilityVeryLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.VectorModel = model
	field, err := NewVectorTable("field", map[AttackVector]FeasibilityRating{
		VectorPhysical: FeasibilityHigh, VectorLocal: FeasibilityHigh,
		VectorAdjacent: FeasibilityLow, VectorNetwork: FeasibilityVeryLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.ThreatTables = map[string]*VectorTable{"TS-02": field}
	return a
}

// wireOps is one op of every kind, plus a set_threat_table that clears.
func wireOps(t *testing.T) []Op {
	t.Helper()
	a := wireAnalysis(t)
	return []Op{
		{Kind: OpUpsertAsset, Asset: a.Item.Assets[0]},
		{Kind: OpRemoveAsset, ID: "ECM-CAN"},
		{Kind: OpUpsertDamage, Damage: a.Damages[0]},
		{Kind: OpRemoveDamage, ID: "DS-02"},
		{Kind: OpUpsertThreat, Threat: a.Threats[0]},
		{Kind: OpRemoveThreat, ID: "TS-02"},
		{Kind: OpUpsertPath, Path: a.Paths[0]},
		{Kind: OpRemovePath, ID: "AP-01"},
		{Kind: OpSetVectorModel, Table: StandardVectorTable()},
		{Kind: OpSetThreatTable, ID: "TS-01", Table: a.VectorModel},
		{Kind: OpSetThreatTable, ID: "TS-01"},
	}
}

// benchOps are the set_threat_table batches the benchmark driver posts,
// spelled as it spells them: lowercase and snake_case names.
var benchOps = []string{
	`[{"id":"TS-TAMPER","op":"set_threat_table","table":{"name":"bench-a","ratings":{"adjacent":"low","local":"high","network":"very_low","physical":"high"}}}]`,
	`[{"id":"TS-TAMPER","op":"set_threat_table","table":{"name":"bench-b","ratings":{"adjacent":"medium","local":"high","network":"low","physical":"medium"}}}]`,
}

// TestWireGolden pins the TARA wire format byte for byte: analysis
// documents (generated and hand-built), one op of every kind, and the
// re-encoding of the benchmark driver's op batches. Every document also
// reads back and re-encodes to the same bytes. A change that moves the
// format on purpose rewrites the golden with -update and says why.
func TestWireGolden(t *testing.T) {
	var out bytes.Buffer
	writeDoc := func(title string, a *Analysis) {
		var doc bytes.Buffer
		if err := a.WriteJSON(&doc); err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		back, err := ReadJSON(bytes.NewReader(doc.Bytes()))
		if err != nil {
			t.Fatalf("%s: read back: %v", title, err)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatalf("%s: re-encode: %v", title, err)
		}
		if !bytes.Equal(doc.Bytes(), again.Bytes()) {
			t.Fatalf("%s: read-back re-encoding differs:\n%s\nvs\n%s", title, doc.Bytes(), again.Bytes())
		}
		fmt.Fprintf(&out, "== %s\n%s", title, doc.Bytes())
	}
	for seed := int64(1); seed <= 3; seed++ {
		a, err := GenerateAnalysis(GenSpec{Name: "wire", Assets: 3, Damages: 3, Threats: 4, PathsPerThreat: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		writeDoc(fmt.Sprintf("GenerateAnalysis seed %d", seed), a)
	}
	writeDoc("hand-built analysis", wireAnalysis(t))
	emptied := wireAnalysis(t)
	if err := emptied.RemovePath("AP-01"); err != nil {
		t.Fatal(err)
	}
	writeDoc("hand-built analysis, its only path removed", emptied)

	fmt.Fprintf(&out, "== ops\n")
	for _, op := range wireOps(t) {
		wire, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeOps(strings.NewReader("[" + string(wire) + "]"))
		if err != nil {
			t.Fatalf("%s: %v", wire, err)
		}
		again, err := json.Marshal(back[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, again) {
			t.Fatalf("op re-encoding differs:\n%s\nvs\n%s", wire, again)
		}
		fmt.Fprintf(&out, "%s\n", wire)
	}
	fmt.Fprintf(&out, "== benchmark op batches, decoded and re-encoded\n")
	for _, batch := range benchOps {
		ops, err := DecodeOps(strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(ops)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s\n", wire)
	}

	golden := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
			}
		}
	}
}
