package vehicle

import (
	"testing"
	"testing/quick"
)

func mustReference(t *testing.T) *Topology {
	t.Helper()
	top, err := ReferenceArchitecture()
	if err != nil {
		t.Fatalf("ReferenceArchitecture(): %v", err)
	}
	return top
}

func TestReferenceArchitectureShape(t *testing.T) {
	top := mustReference(t)
	if got := len(top.ECUs()); got != 15 {
		t.Errorf("reference architecture has %d ECUs, want 15", got)
	}
	if got := len(top.Buses()); got != 6 {
		t.Errorf("reference architecture has %d buses, want 6", got)
	}
	if top.ECU("ECM") == nil || top.ECU("GW") == nil || top.ECU("OBD") == nil {
		t.Fatal("reference architecture misses a core ECU")
	}
	if top.ECU("GHOST") != nil {
		t.Error("unknown ECU lookup returned non-nil")
	}
}

func TestSurfaceClassificationFig4(t *testing.T) {
	top := mustReference(t)

	// Long-range (green in Fig. 4): connected units only.
	longRange := map[string]bool{}
	for _, e := range top.BySurface(SurfaceLongRange) {
		longRange[e.ID] = true
	}
	for _, id := range []string{"TCU", "V2X", "ICM"} {
		if !longRange[id] {
			t.Errorf("%s should be long-range reachable", id)
		}
	}
	for _, id := range []string{"ECM", "BCU", "OBD", "GW"} {
		if longRange[id] {
			t.Errorf("%s should NOT be long-range reachable", id)
		}
	}

	// Powertrain units are physical-only: the heart of the paper's
	// argument about misleading remote-biased feasibility models.
	for _, id := range []string{"ECM", "TCM", "DEFC"} {
		e := top.ECU(id)
		if !e.Reachable(SurfacePhysical) {
			t.Errorf("%s should be physically reachable", id)
		}
		if e.Reachable(SurfaceLongRange) || e.Reachable(SurfaceShortRange) {
			t.Errorf("%s should be reachable only physically", id)
		}
		if !e.SafetyCritical {
			t.Errorf("%s should be safety critical", id)
		}
	}

	// Every ECU is at least physically reachable.
	for _, e := range top.ECUs() {
		if !e.Reachable(SurfacePhysical) {
			t.Errorf("%s lacks the physical surface", e.ID)
		}
	}
}

func TestByDomain(t *testing.T) {
	top := mustReference(t)
	var pt []*ECU
	for _, e := range top.ECUs() {
		if e.Domain == DomainPowertrain {
			pt = append(pt, e)
		}
	}
	if len(pt) != 3 {
		t.Fatalf("powertrain domain has %d ECUs, want 3", len(pt))
	}
	// ECUs() sorts by ID.
	want := []string{"DEFC", "ECM", "TCM"}
	for i, e := range pt {
		if e.ID != want[i] {
			t.Errorf("powertrain ECU %d = %s, want %s", i, e.ID, want[i])
		}
	}
}

func TestRouteOBDToECM(t *testing.T) {
	top := mustReference(t)
	hops, err := top.Route("OBD", "ECM")
	if err != nil {
		t.Fatal(err)
	}
	// OBD → GW on the diagnostic CAN, GW → ECM on the powertrain CAN.
	if len(hops) != 2 {
		t.Fatalf("Route(OBD, ECM) = %v, want 2 hops", hops)
	}
	if hops[0].From != "OBD" || hops[0].To != "GW" || hops[0].BusID != "CAN-DIAG" {
		t.Errorf("first hop = %+v, want OBD→GW via CAN-DIAG", hops[0])
	}
	if hops[1].From != "GW" || hops[1].To != "ECM" || hops[1].BusID != "CAN-PT" {
		t.Errorf("second hop = %+v, want GW→ECM via CAN-PT", hops[1])
	}
}

func TestRouteSameECU(t *testing.T) {
	top := mustReference(t)
	hops, err := top.Route("ECM", "ECM")
	if err != nil {
		t.Fatal(err)
	}
	if hops != nil {
		t.Errorf("Route(ECM, ECM) = %v, want nil", hops)
	}
}

func TestRouteErrors(t *testing.T) {
	top := mustReference(t)
	if _, err := top.Route("NOPE", "ECM"); err == nil {
		t.Error("Route from unknown ECU succeeded, want error")
	}
	if _, err := top.Route("ECM", "NOPE"); err == nil {
		t.Error("Route to unknown ECU succeeded, want error")
	}
	// A disconnected ECU has no route.
	iso := NewTopology("isolated")
	if err := iso.AddECU(&ECU{ID: "A", Domain: DomainBody, Surfaces: []SurfaceClass{SurfacePhysical}}); err != nil {
		t.Fatal(err)
	}
	if err := iso.AddECU(&ECU{ID: "B", Domain: DomainBody, Surfaces: []SurfaceClass{SurfacePhysical}}); err != nil {
		t.Fatal(err)
	}
	if _, err := iso.Route("A", "B"); err == nil {
		t.Error("Route between disconnected ECUs succeeded, want error")
	}
}

func TestAttackRoutesToECM(t *testing.T) {
	top := mustReference(t)
	routes, err := top.AttackRoutes(SurfaceLongRange, "ECM")
	if err != nil {
		t.Fatal(err)
	}
	// All three long-range entry points can reach the ECM through the
	// gateway — but each route has ≥2 hops, i.e. remote attackers must
	// cross the gateway.
	if len(routes) != 3 {
		t.Fatalf("AttackRoutes(long-range, ECM) has %d entries, want 3: %v", len(routes), routes)
	}
	for entry, hops := range routes {
		if len(hops) < 2 {
			t.Errorf("entry %s reaches ECM in %d hops, want ≥2 (must cross gateway)", entry, len(hops))
		}
	}
	// Physical attackers include the ECM itself (0 hops: direct access).
	physRoutes, err := top.AttackRoutes(SurfacePhysical, "ECM")
	if err != nil {
		t.Fatal(err)
	}
	hops, ok := physRoutes["ECM"]
	if !ok {
		t.Fatal("physical attack routes miss the direct ECM entry")
	}
	if len(hops) != 0 {
		t.Errorf("direct ECM access has %d hops, want 0", len(hops))
	}
}

func TestAttackRoutesUnknownTarget(t *testing.T) {
	top := mustReference(t)
	if _, err := top.AttackRoutes(SurfacePhysical, "NOPE"); err == nil {
		t.Error("AttackRoutes to unknown target succeeded, want error")
	}
}

func TestAddECUValidation(t *testing.T) {
	top := NewTopology("t")
	tests := []struct {
		name string
		ecu  *ECU
	}{
		{"nil", nil},
		{"empty ID", &ECU{ID: " ", Domain: DomainBody, Surfaces: []SurfaceClass{SurfacePhysical}}},
		{"bad domain", &ECU{ID: "X", Domain: 0, Surfaces: []SurfaceClass{SurfacePhysical}}},
		{"no surfaces", &ECU{ID: "X", Domain: DomainBody}},
		{"bad surface", &ECU{ID: "X", Domain: DomainBody, Surfaces: []SurfaceClass{0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := top.AddECU(tt.ecu); err == nil {
				t.Error("AddECU succeeded, want error")
			}
		})
	}
	ok := &ECU{ID: "X", Domain: DomainBody, Surfaces: []SurfaceClass{SurfacePhysical}}
	if err := top.AddECU(ok); err != nil {
		t.Fatalf("AddECU(valid): %v", err)
	}
	if err := top.AddECU(ok); err == nil {
		t.Error("duplicate AddECU succeeded, want error")
	}
}

func TestAddBusValidation(t *testing.T) {
	top := NewTopology("t")
	for _, id := range []string{"A", "B"} {
		if err := top.AddECU(&ECU{ID: id, Domain: DomainBody, Surfaces: []SurfaceClass{SurfacePhysical}}); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name string
		bus  *Bus
	}{
		{"nil", nil},
		{"empty ID", &Bus{ID: "", Kind: BusCAN, ECUIDs: []string{"A", "B"}}},
		{"bad kind", &Bus{ID: "X", Kind: 0, ECUIDs: []string{"A", "B"}}},
		{"single ECU", &Bus{ID: "X", Kind: BusCAN, ECUIDs: []string{"A"}}},
		{"unknown ECU", &Bus{ID: "X", Kind: BusCAN, ECUIDs: []string{"A", "Z"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := top.AddBus(tt.bus); err == nil {
				t.Error("AddBus succeeded, want error")
			}
		})
	}
	ok := &Bus{ID: "X", Kind: BusCAN, ECUIDs: []string{"A", "B"}}
	if err := top.AddBus(ok); err != nil {
		t.Fatalf("AddBus(valid): %v", err)
	}
	if err := top.AddBus(ok); err == nil {
		t.Error("duplicate AddBus succeeded, want error")
	}
}

// Property: every route returned by Route is well-formed — consecutive
// hops chain, endpoints match, and every hop's bus actually attaches both
// its ECUs.
func TestRouteWellFormedProperty(t *testing.T) {
	top := mustReference(t)
	all := top.ECUs()
	f := func(i, j uint8) bool {
		from := all[int(i)%len(all)]
		to := all[int(j)%len(all)]
		hops, err := top.Route(from.ID, to.ID)
		if err != nil {
			return false // reference architecture is fully connected
		}
		if from.ID == to.ID {
			return hops == nil
		}
		if len(hops) == 0 || hops[0].From != from.ID || hops[len(hops)-1].To != to.ID {
			return false
		}
		for k, h := range hops {
			if k > 0 && hops[k-1].To != h.From {
				return false
			}
			bus := top.Bus(h.BusID)
			if bus == nil {
				return false
			}
			attached := map[string]bool{}
			for _, id := range bus.ECUIDs {
				attached[id] = true
			}
			if !attached[h.From] || !attached[h.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnumStrings(t *testing.T) {
	if DomainPowertrain.String() != "PowerTrain" {
		t.Errorf("DomainPowertrain.String() = %q", DomainPowertrain.String())
	}
	if Domain(99).String() != "Domain(99)" {
		t.Errorf("Domain(99).String() = %q", Domain(99).String())
	}
	if BusCAN.String() != "CAN" || BusKind(0).Valid() {
		t.Error("BusKind string/valid mismatch")
	}
	if SurfaceLongRange.String() != "Long-Range Attack" {
		t.Errorf("SurfaceLongRange.String() = %q", SurfaceLongRange.String())
	}
}
