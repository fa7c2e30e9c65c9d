package itemgen

import (
	"testing"

	"github.com/psp-framework/psp/internal/tara"
	"github.com/psp-framework/psp/internal/vehicle"
)

func refTopology(t *testing.T) *vehicle.Topology {
	t.Helper()
	top, err := vehicle.ReferenceArchitecture()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestDeriveItemECM(t *testing.T) {
	top := refTopology(t)
	item, err := DeriveItem(top, "ECM")
	if err != nil {
		t.Fatal(err)
	}
	if item.Name != "Engine Control Module" {
		t.Errorf("item name = %q", item.Name)
	}
	// Firmware asset + one bus asset (ECM sits on CAN-PT only).
	if len(item.Assets) != 2 {
		t.Fatalf("assets = %d, want 2: %+v", len(item.Assets), item.Assets)
	}
	if item.Assets[0].ID != "ECM-FW" || !item.Assets[0].HasProperty(tara.PropertyAuthenticity) {
		t.Errorf("firmware asset = %+v", item.Assets[0])
	}
	if item.Assets[1].ID != "ECM-CAN-PT" || !item.Assets[1].HasProperty(tara.PropertyAvailability) {
		t.Errorf("bus asset = %+v", item.Assets[1])
	}
}

func TestDeriveItemGatewayHasManyBusAssets(t *testing.T) {
	top := refTopology(t)
	item, err := DeriveItem(top, "GW")
	if err != nil {
		t.Fatal(err)
	}
	// The gateway touches 5 bus segments (all but LIN-BODY).
	if len(item.Assets) != 6 {
		t.Errorf("gateway assets = %d, want 6 (fw + 5 buses)", len(item.Assets))
	}
}

func TestDeriveItemUnknownECU(t *testing.T) {
	if _, err := DeriveItem(refTopology(t), "NOPE"); err == nil {
		t.Error("unknown ECU accepted")
	}
}

func TestDeriveAnalysisSafetyCritical(t *testing.T) {
	top := refTopology(t)
	a, err := DeriveAnalysis(top, "ECM")
	if err != nil {
		t.Fatal(err)
	}
	results, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (tamper + DoS)", len(results))
	}
	byID := map[string]*tara.ThreatResult{}
	for _, r := range results {
		byID[r.Threat.ID] = r
	}
	if byID["TS-TAMPER"] == nil || byID["TS-DOS"] == nil {
		t.Fatal("derived threats missing")
	}
	// Safety-critical: DoS impact is Severe; physical-only ECM keeps the
	// physical vector → CAL2 ceiling.
	if byID["TS-DOS"].Impact != tara.ImpactSevere {
		t.Errorf("DoS impact = %v", byID["TS-DOS"].Impact)
	}
	if byID["TS-DOS"].CAL != tara.CAL2 {
		t.Errorf("DoS CAL = %v, want CAL2 (physical ceiling)", byID["TS-DOS"].CAL)
	}
}

func TestDeriveAnalysisNonCritical(t *testing.T) {
	top := refTopology(t)
	a, err := DeriveAnalysis(top, "SCM") // seat module: not safety critical
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Threats) != 1 {
		t.Errorf("non-critical ECU threats = %d, want 1 (tamper only)", len(a.Threats))
	}
	results, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Impact != tara.ImpactModerate {
		t.Errorf("non-critical impact = %v, want Moderate", results[0].Impact)
	}
}

func TestSurfaceVectorMapping(t *testing.T) {
	top := refTopology(t)
	tests := []struct {
		ecu  string
		want tara.AttackVector
	}{
		{"TCU", tara.VectorNetwork},  // long-range
		{"BCM", tara.VectorAdjacent}, // short-range
		{"ECM", tara.VectorPhysical}, // physical only
	}
	for _, tt := range tests {
		if got := surfaceVector(top.ECU(tt.ecu)); got != tt.want {
			t.Errorf("surfaceVector(%s) = %v, want %v", tt.ecu, got, tt.want)
		}
	}
}

func TestDeriveFleet(t *testing.T) {
	top := refTopology(t)
	var fleet []*tara.Analysis
	for _, e := range top.ECUs() {
		if e.Domain != vehicle.DomainPowertrain {
			continue
		}
		a, err := DeriveAnalysis(top, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, a)
	}
	if len(fleet) != 3 {
		t.Fatalf("powertrain fleet = %d analyses, want 3", len(fleet))
	}
	for _, a := range fleet {
		if _, err := a.Run(); err != nil {
			t.Errorf("fleet analysis %s failed: %v", a.Item.Name, err)
		}
	}
}

func TestDerivePathsECM(t *testing.T) {
	top := refTopology(t)
	paths, err := DerivePaths(top, "ECM", "TS-TAMPER")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths derived")
	}
	sawDirect, sawRemote := false, false
	for _, p := range paths {
		if err := p.Validate(); err != nil {
			t.Fatalf("derived path %s invalid: %v", p.ID, err)
		}
		if p.ThreatID != "TS-TAMPER" {
			t.Errorf("path %s threat = %s", p.ID, p.ThreatID)
		}
		if len(p.Steps) == 1 && p.DominantVector() == tara.VectorPhysical {
			sawDirect = true
		}
		if p.Steps[0].Vector == tara.VectorNetwork {
			sawRemote = true
			// Remote entry must still pivot over wired buses: dominant
			// vector tightens to Local.
			if p.DominantVector() != tara.VectorLocal {
				t.Errorf("remote path %s dominant = %v, want Local", p.ID, p.DominantVector())
			}
		}
	}
	if !sawDirect {
		t.Error("missing the direct physical path to the ECM")
	}
	if !sawRemote {
		t.Error("missing a network-entry path to the ECM")
	}
	// IDs are unique.
	ids := map[string]bool{}
	for _, p := range paths {
		if ids[p.ID] {
			t.Fatalf("duplicate path ID %s", p.ID)
		}
		ids[p.ID] = true
	}
}

func TestDerivePathsIntegratesWithAnalysis(t *testing.T) {
	top := refTopology(t)
	a, err := DeriveAnalysis(top, "ECM")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := DerivePaths(top, "ECM", "TS-TAMPER")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		a.AddPath(p)
	}
	results, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With paths analyzed, the tampering feasibility is governed by the
	// easiest path: the remote pivots bottom out at Local → Low under
	// G.9 (better than the Very Low of the bare physical vector).
	for _, r := range results {
		if r.Threat.ID == "TS-TAMPER" && r.Feasibility != tara.FeasibilityLow {
			t.Errorf("tamper feasibility with paths = %v, want Low", r.Feasibility)
		}
	}
}

func TestDerivePathsUnknownTarget(t *testing.T) {
	if _, err := DerivePaths(refTopology(t), "NOPE", "TS"); err == nil {
		t.Error("unknown target accepted")
	}
}
