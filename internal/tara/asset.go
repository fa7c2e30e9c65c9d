package tara

import (
	"fmt"
	"strings"
)

// SecurityProperty is a cybersecurity property of an asset whose
// compromise leads to a damage scenario (ISO/SAE 21434 §15.3).
type SecurityProperty int

// Security properties. The first three are the classic CIA triad; the
// standard's examples extend them with authenticity, authorization and
// non-repudiation.
const (
	PropertyConfidentiality SecurityProperty = iota + 1
	PropertyIntegrity
	PropertyAvailability
	PropertyAuthenticity
	PropertyAuthorization
	PropertyNonRepudiation
)

var propertyNames = map[SecurityProperty]string{
	PropertyConfidentiality: "Confidentiality",
	PropertyIntegrity:       "Integrity",
	PropertyAvailability:    "Availability",
	PropertyAuthenticity:    "Authenticity",
	PropertyAuthorization:   "Authorization",
	PropertyNonRepudiation:  "Non-repudiation",
}

// String returns the property name.
func (p SecurityProperty) String() string {
	if s, ok := propertyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("SecurityProperty(%d)", int(p))
}

// Valid reports whether p is a defined security property.
func (p SecurityProperty) Valid() bool {
	return p >= PropertyConfidentiality && p <= PropertyNonRepudiation
}

// Asset is an item element with one or more cybersecurity properties
// worth protecting (firmware, calibration maps, CAN messages, keys, ...).
type Asset struct {
	// ID is a stable identifier unique within an Item (e.g. "ECM-FW").
	ID string `json:"id"`
	// Name is the human-readable asset name.
	Name string `json:"name"`
	// Description explains what the asset is and where it lives.
	Description string `json:"description,omitempty"`
	// Properties are the cybersecurity properties of the asset whose
	// compromise is damaging.
	Properties []SecurityProperty `json:"properties"`
	// ECU optionally names the vehicle ECU hosting the asset, matching
	// the vehicle topology model.
	ECU string `json:"ecu,omitempty"`
}

// Validate checks that the asset carries an ID, a name and at least one
// valid security property.
func (a *Asset) Validate() error {
	if strings.TrimSpace(a.ID) == "" {
		return fmt.Errorf("tara: asset %q: empty ID", a.Name)
	}
	if strings.TrimSpace(a.Name) == "" {
		return fmt.Errorf("tara: asset %s: empty name", a.ID)
	}
	if len(a.Properties) == 0 {
		return fmt.Errorf("tara: asset %s: no cybersecurity properties", a.ID)
	}
	for _, p := range a.Properties {
		if !p.Valid() {
			return fmt.Errorf("tara: asset %s: invalid security property %d", a.ID, int(p))
		}
	}
	return nil
}

// HasProperty reports whether the asset lists property p.
func (a *Asset) HasProperty(p SecurityProperty) bool {
	for _, q := range a.Properties {
		if q == p {
			return true
		}
	}
	return false
}

// Item is the subject of an ISO/SAE 21434 item definition (§9.3): a
// component or set of components implementing a vehicle-level function,
// together with the assets identified on it.
type Item struct {
	// Name identifies the item (e.g. "Engine Control Module").
	Name string `json:"name"`
	// Description summarizes the item boundary and function.
	Description string `json:"description,omitempty"`
	// Assets are the assets identified on the item.
	Assets []*Asset `json:"assets"`
}

// Validate checks the item and all of its assets, including asset ID
// uniqueness.
func (it *Item) Validate() error {
	if strings.TrimSpace(it.Name) == "" {
		return fmt.Errorf("tara: item with empty name")
	}
	if len(it.Assets) == 0 {
		return fmt.Errorf("tara: item %s: no assets identified", it.Name)
	}
	seen := make(map[string]bool, len(it.Assets))
	for _, a := range it.Assets {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("item %s: %w", it.Name, err)
		}
		if seen[a.ID] {
			return fmt.Errorf("tara: item %s: duplicate asset ID %s", it.Name, a.ID)
		}
		seen[a.ID] = true
	}
	return nil
}

// Asset returns the asset with the given ID, or nil if absent.
func (it *Item) Asset(id string) *Asset {
	for _, a := range it.Assets {
		if a.ID == id {
			return a
		}
	}
	return nil
}
