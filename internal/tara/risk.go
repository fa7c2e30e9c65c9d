package tara

import "fmt"

// RiskValue is the risk level of ISO/SAE 21434 §15.8, an integer between
// 1 (lowest) and 5 (highest). The zero value means "not determined".
type RiskValue int

// Risk value bounds.
const (
	RiskMin RiskValue = 1
	RiskMax RiskValue = 5
)

// Valid reports whether v lies in the defined 1..5 range.
func (v RiskValue) Valid() bool { return v >= RiskMin && v <= RiskMax }

// String renders the value as "R1".."R5".
func (v RiskValue) String() string {
	if !v.Valid() {
		return fmt.Sprintf("RiskValue(%d)", int(v))
	}
	return fmt.Sprintf("R%d", int(v))
}

// TreatmentOption is a risk treatment decision of ISO/SAE 21434 §15.9.
type TreatmentOption int

// Treatment options.
const (
	TreatmentAvoid TreatmentOption = iota + 1
	TreatmentReduce
	TreatmentShare
	TreatmentRetain
)

var treatmentNames = map[TreatmentOption]string{
	TreatmentAvoid:  "Avoid",
	TreatmentReduce: "Reduce",
	TreatmentShare:  "Share",
	TreatmentRetain: "Retain",
}

// String returns the treatment option name.
func (t TreatmentOption) String() string {
	if s, ok := treatmentNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TreatmentOption(%d)", int(t))
}

// Valid reports whether t is a defined treatment option.
func (t TreatmentOption) Valid() bool {
	return t >= TreatmentAvoid && t <= TreatmentRetain
}

// RiskMatrix determines the risk value from an impact rating and an
// attack feasibility rating (§15.8). The standard provides an informative
// example matrix; organizations may define their own, which is why the
// matrix is a value and not a fixed function.
type RiskMatrix struct {
	Name string

	cells map[ImpactRating]map[FeasibilityRating]RiskValue
}

// StandardRiskMatrix returns the informative example matrix of
// ISO/SAE 21434 Annex H:
//
//	              Very Low  Low  Medium  High
//	Severe            2      3     4      5
//	Major             1      2     3      4
//	Moderate          1      2     2      3
//	Negligible        1      1     1      1
func StandardRiskMatrix() *RiskMatrix {
	return &RiskMatrix{
		Name: "ISO/SAE 21434 Annex H (risk matrix)",
		cells: map[ImpactRating]map[FeasibilityRating]RiskValue{
			ImpactSevere: {
				FeasibilityVeryLow: 2, FeasibilityLow: 3, FeasibilityMedium: 4, FeasibilityHigh: 5,
			},
			ImpactMajor: {
				FeasibilityVeryLow: 1, FeasibilityLow: 2, FeasibilityMedium: 3, FeasibilityHigh: 4,
			},
			ImpactModerate: {
				FeasibilityVeryLow: 1, FeasibilityLow: 2, FeasibilityMedium: 2, FeasibilityHigh: 3,
			},
			ImpactNegligible: {
				FeasibilityVeryLow: 1, FeasibilityLow: 1, FeasibilityMedium: 1, FeasibilityHigh: 1,
			},
		},
	}
}

// Risk returns the risk value for the given impact and feasibility.
func (m *RiskMatrix) Risk(impact ImpactRating, feasibility FeasibilityRating) (RiskValue, error) {
	if !impact.Valid() {
		return 0, fmt.Errorf("tara: risk determination: invalid impact rating %d", int(impact))
	}
	if !feasibility.Valid() {
		return 0, fmt.Errorf("tara: risk determination: invalid feasibility rating %d", int(feasibility))
	}
	return m.cells[impact][feasibility], nil
}

// SuggestTreatment maps a risk value onto a default treatment decision:
// R1 → Retain, R2–R3 → Reduce, R4 → Share (e.g. contractual cascading
// along the supply chain) in addition to reduction, R5 → Avoid. The
// suggestion is a starting point for the analyst, not a verdict.
func SuggestTreatment(v RiskValue) (TreatmentOption, error) {
	switch v {
	case 1:
		return TreatmentRetain, nil
	case 2, 3:
		return TreatmentReduce, nil
	case 4:
		return TreatmentShare, nil
	case 5:
		return TreatmentAvoid, nil
	}
	return 0, fmt.Errorf("tara: cannot suggest treatment for invalid risk value %d", int(v))
}
