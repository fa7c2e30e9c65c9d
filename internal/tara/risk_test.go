package tara

import (
	"testing"
	"testing/quick"
)

func TestStandardRiskMatrixCells(t *testing.T) {
	m := StandardRiskMatrix()
	tests := []struct {
		impact ImpactRating
		feas   FeasibilityRating
		want   RiskValue
	}{
		{ImpactSevere, FeasibilityHigh, 5},
		{ImpactSevere, FeasibilityVeryLow, 2},
		{ImpactMajor, FeasibilityHigh, 4},
		{ImpactMajor, FeasibilityVeryLow, 1},
		{ImpactModerate, FeasibilityMedium, 2},
		{ImpactNegligible, FeasibilityHigh, 1},
		{ImpactNegligible, FeasibilityVeryLow, 1},
	}
	for _, tt := range tests {
		got, err := m.Risk(tt.impact, tt.feas)
		if err != nil {
			t.Fatalf("Risk(%s, %s): %v", tt.impact, tt.feas, err)
		}
		if got != tt.want {
			t.Errorf("Risk(%s, %s) = %s, want R%d", tt.impact, tt.feas, got, int(tt.want))
		}
	}
}

func TestRiskRejectsInvalidInputs(t *testing.T) {
	m := StandardRiskMatrix()
	if _, err := m.Risk(ImpactRating(0), FeasibilityHigh); err == nil {
		t.Error("Risk with invalid impact succeeded, want error")
	}
	if _, err := m.Risk(ImpactSevere, FeasibilityRating(0)); err == nil {
		t.Error("Risk with invalid feasibility succeeded, want error")
	}
}

func TestSuggestTreatment(t *testing.T) {
	tests := []struct {
		risk RiskValue
		want TreatmentOption
	}{
		{1, TreatmentRetain},
		{2, TreatmentReduce},
		{3, TreatmentReduce},
		{4, TreatmentShare},
		{5, TreatmentAvoid},
	}
	for _, tt := range tests {
		got, err := SuggestTreatment(tt.risk)
		if err != nil {
			t.Fatalf("SuggestTreatment(%d): %v", int(tt.risk), err)
		}
		if got != tt.want {
			t.Errorf("SuggestTreatment(%d) = %v, want %v", int(tt.risk), got, tt.want)
		}
	}
	if _, err := SuggestTreatment(0); err == nil {
		t.Error("SuggestTreatment(0) succeeded, want error")
	}
	if _, err := SuggestTreatment(6); err == nil {
		t.Error("SuggestTreatment(6) succeeded, want error")
	}
}

// Property: for every valid (impact, feasibility) pair the standard matrix
// yields a valid risk value, and the value is monotone in both inputs.
func TestStandardMatrixMonotoneProperty(t *testing.T) {
	m := StandardRiskMatrix()
	f := func(i1, f1, i2, f2 uint8) bool {
		imp1 := ImpactNegligible + ImpactRating(i1%4)
		fe1 := FeasibilityVeryLow + FeasibilityRating(f1%4)
		imp2 := ImpactNegligible + ImpactRating(i2%4)
		fe2 := FeasibilityVeryLow + FeasibilityRating(f2%4)
		r1, err := m.Risk(imp1, fe1)
		if err != nil || !r1.Valid() {
			return false
		}
		r2, err := m.Risk(imp2, fe2)
		if err != nil || !r2.Valid() {
			return false
		}
		if imp1 <= imp2 && fe1 <= fe2 && r1 > r2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
