package tara

import (
	"fmt"
	"strings"
)

// ImpactCategory is one of the four damage dimensions of ISO/SAE 21434
// §15.5 (the "SFOP" categories).
type ImpactCategory int

// Impact categories.
const (
	CategorySafety ImpactCategory = iota + 1
	CategoryFinancial
	CategoryOperational
	CategoryPrivacy
)

var categoryNames = map[ImpactCategory]string{
	CategorySafety:      "Safety",
	CategoryFinancial:   "Financial",
	CategoryOperational: "Operational",
	CategoryPrivacy:     "Privacy",
}

// String returns the category name.
func (c ImpactCategory) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("ImpactCategory(%d)", int(c))
}

// Valid reports whether c is a defined impact category.
func (c ImpactCategory) Valid() bool {
	return c >= CategorySafety && c <= CategoryPrivacy
}

// DamageScenario describes the adverse consequence of compromising one or
// more assets, with a per-category impact rating.
type DamageScenario struct {
	// ID is a stable identifier unique within an analysis (e.g. "DS-01").
	ID string
	// Description is the damage narrative ("unintended full-torque
	// request while driving", ...).
	Description string
	// AssetIDs lists the assets whose compromise realizes the damage.
	AssetIDs []string
	// Impacts carries the rating per impact category. Categories may be
	// omitted; an omitted category contributes nothing to the overall
	// rating.
	Impacts map[ImpactCategory]ImpactRating
}

// Validate checks identifiers and rating validity.
func (d *DamageScenario) Validate() error {
	if strings.TrimSpace(d.ID) == "" {
		return fmt.Errorf("tara: damage scenario with empty ID")
	}
	if len(d.Impacts) == 0 {
		return fmt.Errorf("tara: damage scenario %s: no impact ratings", d.ID)
	}
	for c, r := range d.Impacts {
		if !c.Valid() {
			return fmt.Errorf("tara: damage scenario %s: invalid impact category %d", d.ID, int(c))
		}
		if !r.Valid() {
			return fmt.Errorf("tara: damage scenario %s: invalid %s impact rating %d", d.ID, c, int(r))
		}
	}
	return nil
}

// OverallImpact aggregates the per-category ratings into the scenario's
// overall impact. Per the standard's guidance the categories are not
// averaged: the overall rating is the maximum across categories, so a
// scenario that is Severe for safety stays Severe regardless of its
// financial rating.
func (d *DamageScenario) OverallImpact() ImpactRating {
	var maxRating ImpactRating
	for _, r := range d.Impacts {
		if r > maxRating {
			maxRating = r
		}
	}
	return maxRating
}

// Impact returns the rating for category c, or 0 if the category was not
// rated.
func (d *DamageScenario) Impact(c ImpactCategory) ImpactRating {
	return d.Impacts[c]
}
