package tara

import "fmt"

// CAL is a Cybersecurity Assurance Level, the rigor target ISO/SAE 21434
// assigns to a cybersecurity goal (Annex E). CAL1 is the lowest level of
// assurance and CAL4 the highest, mirroring ASIL A–D of ISO 26262.
type CAL int

// Assurance levels. CALNone indicates that no cybersecurity assurance
// activities are required for the goal.
const (
	CALNone CAL = iota
	CAL1
	CAL2
	CAL3
	CAL4
)

// String returns "CAL1".."CAL4", or "-" for CALNone.
func (c CAL) String() string {
	switch c {
	case CALNone:
		return "-"
	case CAL1, CAL2, CAL3, CAL4:
		return fmt.Sprintf("CAL%d", int(c))
	}
	return fmt.Sprintf("CAL(%d)", int(c))
}

// Valid reports whether c is CALNone or one of CAL1..CAL4.
func (c CAL) Valid() bool { return c >= CALNone && c <= CAL4 }

// CALTable determines the CAL from the impact rating and the attack
// vector of the relevant threat scenario (Fig. 6 of the paper). The
// standard's table caps every physical-vector goal at CAL2 — the
// limitation the paper highlights for powertrain DoS scenarios.
type CALTable struct {
	Name string

	cells map[ImpactRating]map[AttackVector]CAL
}

// StandardCALTable returns the CAL determination matrix of ISO/SAE 21434
// Annex E (Fig. 6 of the paper):
//
//	                Physical  Local  Adjacent  Network
//	Severe           CAL2     CAL3   CAL4      CAL4
//	Major            CAL1     CAL2   CAL3      CAL3
//	Moderate         CAL1     CAL1   CAL2      CAL2
//	Negligible       -        -      -         -
func StandardCALTable() *CALTable {
	return &CALTable{
		Name: "ISO/SAE 21434 Annex E (CAL determination)",
		cells: map[ImpactRating]map[AttackVector]CAL{
			ImpactSevere: {
				VectorPhysical: CAL2, VectorLocal: CAL3, VectorAdjacent: CAL4, VectorNetwork: CAL4,
			},
			ImpactMajor: {
				VectorPhysical: CAL1, VectorLocal: CAL2, VectorAdjacent: CAL3, VectorNetwork: CAL3,
			},
			ImpactModerate: {
				VectorPhysical: CAL1, VectorLocal: CAL1, VectorAdjacent: CAL2, VectorNetwork: CAL2,
			},
			ImpactNegligible: {
				VectorPhysical: CALNone, VectorLocal: CALNone, VectorAdjacent: CALNone, VectorNetwork: CALNone,
			},
		},
	}
}

// Determine returns the CAL for the given impact rating and attack vector.
func (t *CALTable) Determine(impact ImpactRating, vector AttackVector) (CAL, error) {
	if !impact.Valid() {
		return 0, fmt.Errorf("tara: CAL determination: invalid impact rating %d", int(impact))
	}
	if !vector.Valid() {
		return 0, fmt.Errorf("tara: CAL determination: invalid attack vector %d", int(vector))
	}
	return t.cells[impact][vector], nil
}

// MaxForVector returns the highest CAL reachable through the given attack
// vector — e.g. CAL2 for physical attacks under the standard table, which
// is the ceiling the paper criticizes for safety-critical powertrain DoS.
func (t *CALTable) MaxForVector(vector AttackVector) (CAL, error) {
	if !vector.Valid() {
		return 0, fmt.Errorf("tara: CAL determination: invalid attack vector %d", int(vector))
	}
	maxCAL := CALNone
	for _, row := range t.cells {
		if c := row[vector]; c > maxCAL {
			maxCAL = c
		}
	}
	return maxCAL, nil
}
