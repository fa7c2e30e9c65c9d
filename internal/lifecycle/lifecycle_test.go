package lifecycle

import (
	"errors"
	"testing"
)

func TestFullLifecycleReprocessingCount(t *testing.T) {
	var fired []Phase
	lc := New(func(p Phase, reason string) error {
		fired = append(fired, p)
		return nil
	})
	if lc.Current() != PhaseItemDefinition {
		t.Fatalf("initial phase = %s", lc.Current())
	}
	if err := lc.RunToProduction(); err != nil {
		t.Fatal(err)
	}
	if lc.Current() != PhaseProductionReadiness {
		t.Errorf("final phase = %s", lc.Current())
	}
	// Fig. 2 marks six reprocessing points along the V.
	if len(fired) != 6 {
		t.Errorf("reprocessing fired %d times, want 6: %v", len(fired), fired)
	}
	if lc.ReprocessingCount() != 6 {
		t.Errorf("ReprocessingCount() = %d, want 6", lc.ReprocessingCount())
	}
	want := []Phase{
		PhaseGoalsAndConcepts, PhaseIntegrationVerification, PhaseFunctionalTesting,
		PhaseFuzzTesting, PhasePenTesting, PhaseProductionReadiness,
	}
	for i, p := range want {
		if i >= len(fired) || fired[i] != p {
			t.Errorf("reprocessing[%d] = %v, want %s", i, fired, p)
			break
		}
	}
	// Advancing past the end fails.
	if err := lc.Advance(); err == nil {
		t.Error("advance past production readiness succeeded")
	}
}

func TestDesignPhasesDoNotReprocess(t *testing.T) {
	for _, p := range []Phase{PhaseItemDefinition, PhaseDesign, PhaseImplementation} {
		if p.TriggersReprocessing() {
			t.Errorf("%s should not trigger reprocessing", p)
		}
	}
}

func TestFieldVulnerabilityForcesReprocessing(t *testing.T) {
	count := 0
	lc := New(func(p Phase, reason string) error {
		count++
		return nil
	})
	if err := lc.RunToProduction(); err != nil {
		t.Fatal(err)
	}
	before := count
	if err := lc.FieldVulnerability("CAN DoS observed in fleet telemetry"); err != nil {
		t.Fatal(err)
	}
	if count != before+1 {
		t.Errorf("field vulnerability did not fire reprocessing")
	}
	events := lc.Events()
	last := events[len(events)-1]
	if last.Kind != "tara-reprocessing" || last.Phase != PhaseProductionReadiness {
		t.Errorf("last event = %+v", last)
	}
}

func TestReprocessErrorAbortsTransition(t *testing.T) {
	boom := errors.New("model regeneration failed")
	lc := New(func(p Phase, reason string) error { return boom })
	if err := lc.Advance(); !errors.Is(err, boom) {
		t.Fatalf("Advance error = %v, want wrapped boom", err)
	}
	// The failed transition must not change the phase.
	if lc.Current() != PhaseItemDefinition {
		t.Errorf("phase advanced despite reprocessing failure: %s", lc.Current())
	}
}

func TestEventsAreOrderedAndCopied(t *testing.T) {
	lc := New(nil)
	_ = lc.Advance()
	_ = lc.Advance()
	events := lc.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Sequence <= events[i-1].Sequence {
			t.Fatal("events not strictly ordered")
		}
	}
	// Mutating the copy must not corrupt the lifecycle.
	if len(events) > 0 {
		events[0].Note = "tampered"
		if lc.Events()[0].Note == "tampered" {
			t.Error("Events() exposed internal state")
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	if PhaseItemDefinition.String() != "Item Definition" {
		t.Errorf("PhaseItemDefinition = %q", PhaseItemDefinition.String())
	}
	if Phase(99).String() != "Phase(99)" {
		t.Errorf("unknown phase = %q", Phase(99).String())
	}
	if !PhasePenTesting.Valid() || Phase(0).Valid() {
		t.Error("Valid() wrong")
	}
}
