package tara

import (
	"fmt"
	"strings"
)

// STRIDECategory classifies a threat scenario by the STRIDE taxonomy used
// in the HEAVENS model referenced by the standard and the paper.
type STRIDECategory int

// STRIDE categories.
const (
	Spoofing STRIDECategory = iota + 1
	Tampering
	Repudiation
	InformationDisclosure
	DenialOfService
	ElevationOfPrivilege
)

var strideNames = map[STRIDECategory]string{
	Spoofing:              "Spoofing",
	Tampering:             "Tampering",
	Repudiation:           "Repudiation",
	InformationDisclosure: "Information Disclosure",
	DenialOfService:       "Denial of Service",
	ElevationOfPrivilege:  "Elevation of Privilege",
}

// String returns the STRIDE category name.
func (s STRIDECategory) String() string {
	if n, ok := strideNames[s]; ok {
		return n
	}
	return fmt.Sprintf("STRIDECategory(%d)", int(s))
}

// Valid reports whether s is a defined STRIDE category.
func (s STRIDECategory) Valid() bool {
	return s >= Spoofing && s <= ElevationOfPrivilege
}

// AttackerProfile classifies the adversary behind a threat scenario,
// following the taxonomy the paper summarizes from the automotive
// security literature (Wolf; LA).
type AttackerProfile int

// Attacker profiles. Insider covers attacks the owner knows about and
// approves, even when executed by third parties (tuning workshops,
// untrusted service); Outsider covers attacks the owner is oblivious to
// (thieves, black hats, competitors).
const (
	ProfileInsider AttackerProfile = iota + 1
	ProfileOutsider
	ProfileRational
	ProfileMalicious
	ProfileActive
	ProfilePassive
	ProfileLocal
	ProfileRemote
)

var profileNames = map[AttackerProfile]string{
	ProfileInsider:   "Insider",
	ProfileOutsider:  "Outsider",
	ProfileRational:  "Rational",
	ProfileMalicious: "Malicious",
	ProfileActive:    "Active",
	ProfilePassive:   "Passive",
	ProfileLocal:     "Local",
	ProfileRemote:    "Remote",
}

// String returns the profile name.
func (p AttackerProfile) String() string {
	if s, ok := profileNames[p]; ok {
		return s
	}
	return fmt.Sprintf("AttackerProfile(%d)", int(p))
}

// Valid reports whether p is a defined attacker profile.
func (p AttackerProfile) Valid() bool {
	return p >= ProfileInsider && p <= ProfileRemote
}

// ThreatScenario is a potential cause of compromise of one or more assets
// leading to a damage scenario (§15.4).
type ThreatScenario struct {
	// ID is a stable identifier unique within an analysis (e.g. "TS-01").
	ID string `json:"id"`
	// Name is a short human-readable title ("ECM reprogramming").
	Name string `json:"name"`
	// Description narrates how the compromise happens.
	Description string `json:"description,omitempty"`
	// DamageIDs links the threat to the damage scenarios it realizes.
	DamageIDs []string `json:"damage_ids"`
	// AssetIDs lists the targeted assets.
	AssetIDs []string `json:"asset_ids,omitempty"`
	// Property is the compromised cybersecurity property.
	Property SecurityProperty `json:"property"`
	// STRIDE classifies the threat.
	STRIDE STRIDECategory `json:"stride"`
	// Profiles are the plausible attacker profiles for the scenario.
	Profiles []AttackerProfile `json:"profiles,omitempty"`
	// Vector is the dominant attack vector assumed by the analyst when
	// using the attack vector-based feasibility approach.
	Vector AttackVector `json:"vector"`
	// Keywords seed the PSP social query for this scenario (e.g.
	// "ecm reprogramming", "#chiptuning"). Optional: an empty list keeps
	// the scenario out of social tuning.
	Keywords []string `json:"keywords,omitempty"`
}

// Validate checks identifiers, property, STRIDE and vector validity.
func (t *ThreatScenario) Validate() error {
	if strings.TrimSpace(t.ID) == "" {
		return fmt.Errorf("tara: threat scenario with empty ID")
	}
	if strings.TrimSpace(t.Name) == "" {
		return fmt.Errorf("tara: threat scenario %s: empty name", t.ID)
	}
	if len(t.DamageIDs) == 0 {
		return fmt.Errorf("tara: threat scenario %s: no damage scenarios linked", t.ID)
	}
	if !t.Property.Valid() {
		return fmt.Errorf("tara: threat scenario %s: invalid security property %d", t.ID, int(t.Property))
	}
	if !t.STRIDE.Valid() {
		return fmt.Errorf("tara: threat scenario %s: invalid STRIDE category %d", t.ID, int(t.STRIDE))
	}
	if !t.Vector.Valid() {
		return fmt.Errorf("tara: threat scenario %s: invalid attack vector %d", t.ID, int(t.Vector))
	}
	for _, p := range t.Profiles {
		if !p.Valid() {
			return fmt.Errorf("tara: threat scenario %s: invalid attacker profile %d", t.ID, int(p))
		}
	}
	return nil
}

// HasProfile reports whether the scenario lists attacker profile p.
func (t *ThreatScenario) HasProfile(p AttackerProfile) bool {
	for _, q := range t.Profiles {
		if q == p {
			return true
		}
	}
	return false
}

// IsInsider reports whether the scenario is owner-approved per the
// paper's definition: it lists the Insider profile, or the Rational and
// Local profiles together.
func (t *ThreatScenario) IsInsider() bool {
	if t.HasProfile(ProfileInsider) {
		return true
	}
	return t.HasProfile(ProfileRational) && t.HasProfile(ProfileLocal)
}
