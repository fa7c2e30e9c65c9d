package tara

import "testing"

func TestStandardCALTableFig6(t *testing.T) {
	tbl := StandardCALTable()
	tests := []struct {
		impact ImpactRating
		vector AttackVector
		want   CAL
	}{
		{ImpactSevere, VectorPhysical, CAL2},
		{ImpactSevere, VectorLocal, CAL3},
		{ImpactSevere, VectorAdjacent, CAL4},
		{ImpactSevere, VectorNetwork, CAL4},
		{ImpactMajor, VectorPhysical, CAL1},
		{ImpactMajor, VectorLocal, CAL2},
		{ImpactMajor, VectorAdjacent, CAL3},
		{ImpactMajor, VectorNetwork, CAL3},
		{ImpactModerate, VectorPhysical, CAL1},
		{ImpactModerate, VectorLocal, CAL1},
		{ImpactModerate, VectorAdjacent, CAL2},
		{ImpactModerate, VectorNetwork, CAL2},
		{ImpactNegligible, VectorPhysical, CALNone},
		{ImpactNegligible, VectorNetwork, CALNone},
	}
	for _, tt := range tests {
		got, err := tbl.Determine(tt.impact, tt.vector)
		if err != nil {
			t.Fatalf("Determine(%s, %s): %v", tt.impact, tt.vector, err)
		}
		if got != tt.want {
			t.Errorf("Determine(%s, %s) = %s, want %s", tt.impact, tt.vector, got, tt.want)
		}
	}
}

func TestPhysicalAttackCapsAtCAL2(t *testing.T) {
	// The paper's criticism: powertrain DoS via physical attack never
	// exceeds CAL2 under the standard table, regardless of safety impact.
	maxCAL, err := StandardCALTable().MaxForVector(VectorPhysical)
	if err != nil {
		t.Fatal(err)
	}
	if maxCAL != CAL2 {
		t.Errorf("max CAL for physical vector = %s, want CAL2", maxCAL)
	}
	maxNet, err := StandardCALTable().MaxForVector(VectorNetwork)
	if err != nil {
		t.Fatal(err)
	}
	if maxNet != CAL4 {
		t.Errorf("max CAL for network vector = %s, want CAL4", maxNet)
	}
}

func TestCALString(t *testing.T) {
	tests := []struct {
		cal  CAL
		want string
	}{
		{CALNone, "-"},
		{CAL1, "CAL1"},
		{CAL4, "CAL4"},
		{CAL(9), "CAL(9)"},
	}
	for _, tt := range tests {
		if got := tt.cal.String(); got != tt.want {
			t.Errorf("CAL(%d).String() = %q, want %q", int(tt.cal), got, tt.want)
		}
	}
}

func TestDetermineRejectsInvalidInputs(t *testing.T) {
	tbl := StandardCALTable()
	if _, err := tbl.Determine(ImpactRating(0), VectorNetwork); err == nil {
		t.Error("Determine with invalid impact succeeded, want error")
	}
	if _, err := tbl.Determine(ImpactSevere, AttackVector(0)); err == nil {
		t.Error("Determine with invalid vector succeeded, want error")
	}
	if _, err := tbl.MaxForVector(AttackVector(7)); err == nil {
		t.Error("MaxForVector with invalid vector succeeded, want error")
	}
}
