package tara

import (
	"bytes"
	"encoding"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestAnalysisJSONRoundTrip(t *testing.T) {
	orig := ecmAnalysis()
	// Add a path with a potential profile so that branch round-trips.
	orig.AddPath(&AttackPath{
		ID: "AP-02", ThreatID: "TS-02",
		Steps: []AttackStep{{
			Description: "splice into the bus",
			Vector:      VectorPhysical,
			Potential: &AttackPotentialInput{
				Time: TimeOneDay, Expertise: ExpertiseProficient,
				Knowledge: KnowledgePublic, Window: WindowEasy,
				Equipment: EquipmentStandard,
			},
		}},
	})
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Semantic equality: both analyses produce identical results.
	origResults, err := orig.Run()
	if err != nil {
		t.Fatal(err)
	}
	backResults, err := back.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(origResults) != len(backResults) {
		t.Fatalf("result counts differ: %d vs %d", len(origResults), len(backResults))
	}
	for i := range origResults {
		o, b := origResults[i], backResults[i]
		if o.Threat.ID != b.Threat.ID || o.Impact != b.Impact ||
			o.Feasibility != b.Feasibility || o.Risk != b.Risk ||
			o.CAL != b.CAL || o.Treatment != b.Treatment {
			t.Errorf("result %d differs:\n%+v\n%+v", i, o, b)
		}
	}
	// Structural spot checks.
	if back.Item.Name != orig.Item.Name || len(back.Item.Assets) != len(orig.Item.Assets) {
		t.Error("item lost in round trip")
	}
	if len(back.Paths) != len(orig.Paths) {
		t.Errorf("paths = %d, want %d", len(back.Paths), len(orig.Paths))
	}
	if back.Paths[1].Steps[0].Potential == nil {
		t.Error("potential profile lost in round trip")
	}
}

func TestAnalysisJSONCustomVectorModel(t *testing.T) {
	a := ecmAnalysis()
	retuned, err := NewVectorTable("PSP insider", map[AttackVector]FeasibilityRating{
		VectorPhysical: FeasibilityHigh,
		VectorLocal:    FeasibilityMedium,
		VectorAdjacent: FeasibilityLow,
		VectorNetwork:  FeasibilityVeryLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.VectorModel = retuned
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PSP insider") {
		t.Error("custom vector model not serialized")
	}
	back, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.VectorModel.Equal(retuned) {
		t.Error("vector model lost in round trip")
	}
	// The standard table is NOT serialized (defaults reinstall on read).
	std := ecmAnalysis()
	buf.Reset()
	if err := std.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "vector_model") {
		t.Error("standard vector model serialized redundantly")
	}
}

func TestWriteJSONRejectsInvalidAnalysis(t *testing.T) {
	a := ecmAnalysis()
	a.Threats[0].DamageIDs = []string{"DS-404"}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err == nil {
		t.Error("invalid analysis serialized")
	}
}

func TestReadJSONRejectsBadDocuments(t *testing.T) {
	cases := []string{
		"not json",
		"{}", // no item
		`{"item":{"name":"X","assets":[{"id":"A","name":"a","properties":["Levitation"]}]},
		  "damage_scenarios":[],"threat_scenarios":[],"attack_paths":[]}`,
		`{"item":{"name":"X","assets":[{"id":"A","name":"a","properties":["Integrity"]}]},
		  "damage_scenarios":[{"id":"D","impacts":{"Safety":"Apocalyptic"}}],
		  "threat_scenarios":[],"attack_paths":[]}`,
	}
	for i, doc := range cases {
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("case %d: bad document accepted", i)
		}
	}
}

// TestEnumNameParsers: every enumeration decodes its display name and an
// alternate spelling to the same value, re-encodes it as the display
// name, and rejects an unknown name (and the empty one) with an error
// naming it.
func TestEnumNameParsers(t *testing.T) {
	type enum interface {
		encoding.TextMarshaler
		encoding.TextUnmarshaler
	}
	cases := []struct {
		v                 enum
		display, alt, bad string
	}{
		{new(SecurityProperty), "Non-repudiation", "non_repudiation", "Levitation"},
		{new(ImpactCategory), "Operational", "operational", "Reputational"},
		{new(ImpactRating), "Severe", "severe", "Apocalyptic"},
		{new(STRIDECategory), "Denial of Service", "denial-of-service", "Sabotage"},
		{new(AttackerProfile), "Outsider", "outsider", "Ghost"},
		{new(AttackVector), "Adjacent", "adjacent_network", "Orbital"},
		{new(FeasibilityRating), "Very Low", "very_low", "Extreme"},
	}
	for _, c := range cases {
		for _, in := range []string{c.display, c.alt} {
			if err := c.v.UnmarshalText([]byte(in)); err != nil {
				t.Errorf("%T: UnmarshalText(%q): %v", c.v, in, err)
				continue
			}
			if got, _ := c.v.MarshalText(); string(got) != c.display {
				t.Errorf("%T: %q decodes to %q, want %q", c.v, in, got, c.display)
			}
		}
		for _, bad := range []string{c.bad, ""} {
			err := c.v.UnmarshalText([]byte(bad))
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
				t.Errorf("%T: UnmarshalText(%q) = %v, want an error naming it", c.v, bad, err)
			}
		}
	}
}

// TestVectorTableWireFormat: op batches and analysis documents carry
// vector tables as {"name":…,"ratings":{vector:rating}}; a literal in
// that form decodes and re-encodes byte for byte.
func TestVectorTableWireFormat(t *testing.T) {
	const ops = `[{"op":"set_threat_table","id":"TS-TAMPER","table":{"name":"field","ratings":{"Adjacent":"Low","Local":"High","Network":"Very Low","Physical":"High"}}}]`
	decoded, err := DecodeOps(strings.NewReader(ops))
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := decoded[0].Table.Rating(VectorNetwork); r != FeasibilityVeryLow {
		t.Fatalf("decoded table rates Network %v, want Very Low", r)
	}
	wire, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != ops {
		t.Fatalf("re-encoded ops differ:\n got %s\nwant %s", wire, ops)
	}

	a := ecmAnalysis()
	a.ThreatTables = map[string]*VectorTable{a.Threats[0].ID: decoded[0].Table}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const table = `"` + `threat_tables": {
    "TS-01": {
      "name": "field",
      "ratings": {
        "Adjacent": "Low",
        "Local": "High",
        "Network": "Very Low",
        "Physical": "High"
      }
    }
  }`
	if !strings.Contains(buf.String(), table) {
		t.Fatalf("analysis document lacks the threat table in its wire form:\n%s", buf.String())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ThreatTables[a.Threats[0].ID].Equal(decoded[0].Table) {
		t.Fatal("threat table changed in the document round trip")
	}

	// Decoding validates like NewVectorTable.
	for _, bad := range []string{
		`{"name":"partial","ratings":{"Physical":"High"}}`,
		`{"name":"odd","ratings":{"Adjacent":"Low","Local":"High","Network":"Extreme","Physical":"High"}}`,
		`{"name":"odd","ratings":{"Adjacent":"Low","Local":"High","Orbital":"Low","Physical":"High"}}`,
	} {
		var tbl VectorTable
		if err := json.Unmarshal([]byte(bad), &tbl); err == nil {
			t.Errorf("invalid table %s decoded", bad)
		}
	}
}
