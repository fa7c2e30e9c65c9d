package tara

import (
	"errors"
	"fmt"
)

// The attack potential-based approach (ISO/SAE 21434 Annex G.2, derived
// from ISO/IEC 18045) rates feasibility from five core parameters. Each
// parameter level carries a fixed weight (Fig. 3 of the paper); the sum of
// the weights is the attack potential value, and the value maps onto the
// feasibility rating: the *lower* the required potential, the *higher* the
// attack feasibility.

// ElapsedTime is the time an attacker needs to identify and exploit the
// vulnerability.
type ElapsedTime int

// Elapsed time levels.
const (
	TimeOneDay ElapsedTime = iota + 1 // up to one day
	TimeOneWeek
	TimeOneMonth
	TimeSixMonths
	TimeBeyondSixMonths
)

// SpecialistExpertise is the level of generic and item-specific skill the
// attacker requires.
type SpecialistExpertise int

// Specialist expertise levels.
const (
	ExpertiseLayman SpecialistExpertise = iota + 1
	ExpertiseProficient
	ExpertiseExpert
	ExpertiseMultipleExperts
)

// ItemKnowledge is the amount of restricted design information required.
type ItemKnowledge int

// Knowledge of the item or component levels.
const (
	KnowledgePublic ItemKnowledge = iota + 1
	KnowledgeRestricted
	KnowledgeConfidential
	KnowledgeStrictlyConfidential
)

// WindowOfOpportunity is the access condition the attack requires
// (combining access type and access duration).
type WindowOfOpportunity int

// Window of opportunity levels.
const (
	WindowUnlimited WindowOfOpportunity = iota + 1
	WindowEasy
	WindowModerate
	WindowDifficult
)

// Equipment is the tooling required to identify or exploit the
// vulnerability.
type Equipment int

// Equipment levels.
const (
	EquipmentStandard Equipment = iota + 1
	EquipmentSpecialized
	EquipmentBespoke
	EquipmentMultipleBespoke
)

// AttackPotentialWeights carries the per-level weights of the five core
// parameters. StandardPotentialWeights returns the fixed values of the
// standard; PSP generates tuned instances.
type AttackPotentialWeights struct {
	Name string

	ElapsedTime map[ElapsedTime]int
	Expertise   map[SpecialistExpertise]int
	Knowledge   map[ItemKnowledge]int
	Window      map[WindowOfOpportunity]int
	Equipment   map[Equipment]int
}

// StandardPotentialWeights returns the fixed weight model of
// ISO/SAE 21434 Annex G.2 (Fig. 3 of the paper).
func StandardPotentialWeights() *AttackPotentialWeights {
	return &AttackPotentialWeights{
		Name: "ISO/SAE 21434 G.2 (attack potential-based)",
		ElapsedTime: map[ElapsedTime]int{
			TimeOneDay:          0,
			TimeOneWeek:         1,
			TimeOneMonth:        4,
			TimeSixMonths:       17,
			TimeBeyondSixMonths: 19,
		},
		Expertise: map[SpecialistExpertise]int{
			ExpertiseLayman:          0,
			ExpertiseProficient:      3,
			ExpertiseExpert:          6,
			ExpertiseMultipleExperts: 8,
		},
		Knowledge: map[ItemKnowledge]int{
			KnowledgePublic:               0,
			KnowledgeRestricted:           3,
			KnowledgeConfidential:         7,
			KnowledgeStrictlyConfidential: 11,
		},
		Window: map[WindowOfOpportunity]int{
			WindowUnlimited: 0,
			WindowEasy:      1,
			WindowModerate:  4,
			WindowDifficult: 10,
		},
		Equipment: map[Equipment]int{
			EquipmentStandard:        0,
			EquipmentSpecialized:     4,
			EquipmentBespoke:         7,
			EquipmentMultipleBespoke: 9,
		},
	}
}

// AttackPotentialInput is one attack path profile to be rated by the
// attack potential-based approach.
type AttackPotentialInput struct {
	Time      ElapsedTime         `json:"elapsed_time"`
	Expertise SpecialistExpertise `json:"expertise"`
	Knowledge ItemKnowledge       `json:"knowledge"`
	Window    WindowOfOpportunity `json:"window"`
	Equipment Equipment           `json:"equipment"`
}

// Validate reports the first invalid parameter, if any.
func (in AttackPotentialInput) Validate() error {
	switch {
	case in.Time < TimeOneDay || in.Time > TimeBeyondSixMonths:
		return fmt.Errorf("tara: invalid elapsed time level %d", int(in.Time))
	case in.Expertise < ExpertiseLayman || in.Expertise > ExpertiseMultipleExperts:
		return fmt.Errorf("tara: invalid expertise level %d", int(in.Expertise))
	case in.Knowledge < KnowledgePublic || in.Knowledge > KnowledgeStrictlyConfidential:
		return fmt.Errorf("tara: invalid knowledge level %d", int(in.Knowledge))
	case in.Window < WindowUnlimited || in.Window > WindowDifficult:
		return fmt.Errorf("tara: invalid window of opportunity level %d", int(in.Window))
	case in.Equipment < EquipmentStandard || in.Equipment > EquipmentMultipleBespoke:
		return fmt.Errorf("tara: invalid equipment level %d", int(in.Equipment))
	}
	return nil
}

// ErrIncompleteWeights is returned when a weights model misses a level.
var ErrIncompleteWeights = errors.New("tara: incomplete attack potential weights")

// Potential sums the five parameter weights for the given input, returning
// the attack potential value required to mount the attack.
func (w *AttackPotentialWeights) Potential(in AttackPotentialInput) (int, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	t, ok := w.ElapsedTime[in.Time]
	if !ok {
		return 0, fmt.Errorf("%w: elapsed time level %d", ErrIncompleteWeights, int(in.Time))
	}
	e, ok := w.Expertise[in.Expertise]
	if !ok {
		return 0, fmt.Errorf("%w: expertise level %d", ErrIncompleteWeights, int(in.Expertise))
	}
	k, ok := w.Knowledge[in.Knowledge]
	if !ok {
		return 0, fmt.Errorf("%w: knowledge level %d", ErrIncompleteWeights, int(in.Knowledge))
	}
	wo, ok := w.Window[in.Window]
	if !ok {
		return 0, fmt.Errorf("%w: window level %d", ErrIncompleteWeights, int(in.Window))
	}
	q, ok := w.Equipment[in.Equipment]
	if !ok {
		return 0, fmt.Errorf("%w: equipment level %d", ErrIncompleteWeights, int(in.Equipment))
	}
	return t + e + k + wo + q, nil
}

// PotentialThresholds maps an attack potential value onto a feasibility
// rating. The standard's mapping (Annex G.2): values 0–13 → High,
// 14–19 → Medium, 20–24 → Low, ≥25 → Very Low.
type PotentialThresholds struct {
	// HighMax, MediumMax and LowMax are the inclusive upper bounds of the
	// High, Medium and Low rating bands; anything above LowMax rates
	// Very Low.
	HighMax   int
	MediumMax int
	LowMax    int
}

// StandardPotentialThresholds returns the standard's value → rating bands.
func StandardPotentialThresholds() PotentialThresholds {
	return PotentialThresholds{HighMax: 13, MediumMax: 19, LowMax: 24}
}

// Validate checks that the bands are monotonically ordered.
func (p PotentialThresholds) Validate() error {
	if p.HighMax < 0 || p.MediumMax <= p.HighMax || p.LowMax <= p.MediumMax {
		return fmt.Errorf("tara: invalid potential thresholds %+v", p)
	}
	return nil
}

// Rating maps an attack potential value onto the feasibility rating.
func (p PotentialThresholds) Rating(potential int) FeasibilityRating {
	switch {
	case potential <= p.HighMax:
		return FeasibilityHigh
	case potential <= p.MediumMax:
		return FeasibilityMedium
	case potential <= p.LowMax:
		return FeasibilityLow
	default:
		return FeasibilityVeryLow
	}
}

// RatePotential runs the full attack potential-based approach: weight
// aggregation followed by threshold mapping.
func RatePotential(w *AttackPotentialWeights, th PotentialThresholds, in AttackPotentialInput) (FeasibilityRating, error) {
	if err := th.Validate(); err != nil {
		return 0, err
	}
	v, err := w.Potential(in)
	if err != nil {
		return 0, err
	}
	return th.Rating(v), nil
}
