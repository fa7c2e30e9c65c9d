package tara

import (
	"fmt"
	"strings"
)

// AttackStep is one step of an attack path: an action on an intermediate
// element together with the feasibility profile of that action.
type AttackStep struct {
	// Description narrates the step ("gain OBD port access", "flash
	// modified calibration", ...).
	Description string
	// Vector is the attack vector exercised by this step.
	Vector AttackVector
	// Potential optionally carries the attack potential profile of the
	// step for the attack potential-based approach. Nil when the step is
	// rated by vector only.
	Potential *AttackPotentialInput
}

// AttackPath is an ordered sequence of steps realizing a threat scenario
// (§15.6). Feasibility of the whole path is governed by its hardest step.
type AttackPath struct {
	// ID is a stable identifier unique within an analysis (e.g. "AP-01").
	ID string
	// ThreatID links the path to the threat scenario it realizes.
	ThreatID string
	// Steps are the ordered attack steps. A path needs at least one.
	Steps []AttackStep
}

// Validate checks identifiers, step count and step vector validity.
func (p *AttackPath) Validate() error {
	if strings.TrimSpace(p.ID) == "" {
		return fmt.Errorf("tara: attack path with empty ID")
	}
	if strings.TrimSpace(p.ThreatID) == "" {
		return fmt.Errorf("tara: attack path %s: no threat scenario linked", p.ID)
	}
	if len(p.Steps) == 0 {
		return fmt.Errorf("tara: attack path %s: no steps", p.ID)
	}
	for i, s := range p.Steps {
		if !s.Vector.Valid() {
			return fmt.Errorf("tara: attack path %s step %d: invalid attack vector %d", p.ID, i, int(s.Vector))
		}
		if s.Potential != nil {
			if err := s.Potential.Validate(); err != nil {
				return fmt.Errorf("attack path %s step %d: %w", p.ID, i, err)
			}
		}
	}
	return nil
}

// DominantVector returns the vector of the path's most demanding step:
// the closest (lowest-valued) vector in the sequence, because an attacker
// must satisfy the tightest access requirement to complete the path.
func (p *AttackPath) DominantVector() AttackVector {
	dom := VectorNetwork
	for _, s := range p.Steps {
		if s.Vector < dom {
			dom = s.Vector
		}
	}
	return dom
}

// RateByVector rates the path with the attack vector-based approach:
// the rating of the dominant (closest) vector under the given table.
func (p *AttackPath) RateByVector(t *VectorTable) (FeasibilityRating, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return t.Rating(p.DominantVector())
}

// RateByPotential rates the path with the attack potential-based
// approach. Each step with a potential profile contributes its summed
// weight; the path potential is the maximum step potential (the hardest
// step gates the attack), mapped through the thresholds. It is an error
// if no step carries a potential profile.
func (p *AttackPath) RateByPotential(w *AttackPotentialWeights, th PotentialThresholds) (FeasibilityRating, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := th.Validate(); err != nil {
		return 0, err
	}
	maxPotential, rated := 0, false
	for i, s := range p.Steps {
		if s.Potential == nil {
			continue
		}
		v, err := w.Potential(*s.Potential)
		if err != nil {
			return 0, fmt.Errorf("attack path %s step %d: %w", p.ID, i, err)
		}
		if !rated || v > maxPotential {
			maxPotential, rated = v, true
		}
	}
	if !rated {
		return 0, fmt.Errorf("tara: attack path %s: no step carries an attack potential profile", p.ID)
	}
	return th.Rating(maxPotential), nil
}
