package tara

import (
	"fmt"
	"sort"
)

// AttackVector is the logical and physical distance an attacker needs to
// the item, as defined by the attack vector-based approach of
// ISO/SAE 21434 Annex G. (CVSS v3.1 uses the same four classes, but the
// CVSS-based approach is not implemented.) The zero value means
// "unspecified".
type AttackVector int

// Attack vectors, ordered from closest (most physical) to farthest
// (most remote). The standard's G.9 table assigns higher feasibility to
// more remote vectors — the assignment the PSP paper challenges for
// insider-dominated threat scenarios.
const (
	VectorPhysical AttackVector = iota + 1
	VectorLocal
	VectorAdjacent
	VectorNetwork
)

var vectorNames = map[AttackVector]string{
	VectorPhysical: "Physical",
	VectorLocal:    "Local",
	VectorAdjacent: "Adjacent",
	VectorNetwork:  "Network",
}

// String returns the vector name used by the standard.
func (v AttackVector) String() string {
	if s, ok := vectorNames[v]; ok {
		return s
	}
	return fmt.Sprintf("AttackVector(%d)", int(v))
}

// Valid reports whether v is one of the four defined vectors.
func (v AttackVector) Valid() bool {
	return v >= VectorPhysical && v <= VectorNetwork
}

// ParseVector converts a vector name into an AttackVector. Matching is
// case-insensitive.
func ParseVector(s string) (AttackVector, error) {
	switch normalizeName(s) {
	case "physical", "p":
		return VectorPhysical, nil
	case "local", "l":
		return VectorLocal, nil
	case "adjacent", "adjacent network", "a":
		return VectorAdjacent, nil
	case "network", "remote", "n":
		return VectorNetwork, nil
	}
	return 0, fmt.Errorf("tara: unknown attack vector %q", s)
}

// AllVectors returns the four attack vectors in standard order
// (Physical, Local, Adjacent, Network).
func AllVectors() []AttackVector {
	return []AttackVector{VectorPhysical, VectorLocal, VectorAdjacent, VectorNetwork}
}

// VectorTable maps each attack vector to an attack feasibility rating.
// It is the data structure behind table G.9 of ISO/SAE 21434 (Fig. 5 and
// Fig. 9-A of the paper) and behind the PSP-revised replacements of that
// table (Fig. 8-B, Fig. 9-B/C).
type VectorTable struct {
	// Name identifies the table in reports (e.g. "ISO-21434 G.9" or
	// "PSP insider (since 2022)").
	Name string

	ratings map[AttackVector]FeasibilityRating
}

// StandardVectorTable returns the fixed-weight attack vector-based table
// of ISO/SAE 21434 Annex G.9: Network → High, Adjacent → Medium,
// Local → Low, Physical → Very Low.
func StandardVectorTable() *VectorTable {
	return &VectorTable{
		Name: "ISO/SAE 21434 G.9 (attack vector-based)",
		ratings: map[AttackVector]FeasibilityRating{
			VectorNetwork:  FeasibilityHigh,
			VectorAdjacent: FeasibilityMedium,
			VectorLocal:    FeasibilityLow,
			VectorPhysical: FeasibilityVeryLow,
		},
	}
}

// NewVectorTable builds a custom table. Every one of the four vectors must
// be assigned a valid rating.
func NewVectorTable(name string, ratings map[AttackVector]FeasibilityRating) (*VectorTable, error) {
	if len(ratings) == 0 {
		return nil, fmt.Errorf("tara: vector table %q: no ratings", name)
	}
	cp := make(map[AttackVector]FeasibilityRating, len(ratings))
	for _, v := range AllVectors() {
		r, ok := ratings[v]
		if !ok {
			return nil, fmt.Errorf("tara: vector table %q: missing rating for vector %s", name, v)
		}
		if !r.Valid() {
			return nil, fmt.Errorf("tara: vector table %q: invalid rating %d for vector %s", name, int(r), v)
		}
		cp[v] = r
	}
	return &VectorTable{Name: name, ratings: cp}, nil
}

// Rating returns the feasibility rating assigned to vector v.
func (t *VectorTable) Rating(v AttackVector) (FeasibilityRating, error) {
	r, ok := t.ratings[v]
	if !ok {
		return 0, fmt.Errorf("tara: vector table %q: no rating for vector %s", t.Name, v)
	}
	return r, nil
}

// Ratings returns a copy of the full vector → rating assignment.
func (t *VectorTable) Ratings() map[AttackVector]FeasibilityRating {
	cp := make(map[AttackVector]FeasibilityRating, len(t.ratings))
	for v, r := range t.ratings {
		cp[v] = r
	}
	return cp
}

// RankedVectors returns the vectors sorted by descending feasibility
// rating; ties break in standard vector order (Physical first). The first
// element is the vector the table considers most feasible.
func (t *VectorTable) RankedVectors() []AttackVector {
	vs := AllVectors()
	sort.SliceStable(vs, func(i, j int) bool {
		return t.ratings[vs[i]] > t.ratings[vs[j]]
	})
	return vs
}

// Equal reports whether two tables assign identical ratings (names are
// ignored).
func (t *VectorTable) Equal(o *VectorTable) bool {
	if o == nil {
		return false
	}
	for _, v := range AllVectors() {
		if t.ratings[v] != o.ratings[v] {
			return false
		}
	}
	return true
}
