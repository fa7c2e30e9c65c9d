package tara

import (
	"encoding/json"
	"fmt"
	"io"
)

// TARA analyses are work products exchanged with assessors and suppliers
// (UNR-155 cascading). The entities carry their wire keys as JSON tags,
// so an analysis document and an op batch are the entities themselves;
// this file holds the document envelope and the text forms of the
// enumerations. Enumerations serialize as their display names, not
// integers, so documents stay meaningful to humans and robust against
// reordering of Go constants; they decode through the normalizing
// parsers, so "Very Low", "very_low" and "very-low" all read.

// analysisDoc is the wire form of an Analysis.
type analysisDoc struct {
	Item    *Item             `json:"item"`
	Damages []*DamageScenario `json:"damage_scenarios"`
	Threats []*ThreatScenario `json:"threat_scenarios"`
	Paths   []*AttackPath     `json:"attack_paths"`
	// Models: only the vector table is serialized (the PSP-tunable
	// part); potential weights, risk matrix and CAL table deserialize to
	// the standard defaults and can be overridden programmatically.
	VectorModel *VectorTable `json:"vector_model,omitempty"`
	// ThreatTables carries the per-threat vector table overrides learned
	// by the social loop.
	ThreatTables map[string]*VectorTable `json:"threat_tables,omitempty"`
}

// WriteJSON serializes the analysis as an indented JSON document. The
// analysis is validated first: invalid work products must not circulate.
func (a *Analysis) WriteJSON(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("tara: refuse to serialize invalid analysis: %w", err)
	}
	doc := &analysisDoc{Item: a.Item, Damages: orNil(a.Damages), Threats: orNil(a.Threats), Paths: orNil(a.Paths)}
	if a.VectorModel != nil && !a.VectorModel.Equal(StandardVectorTable()) {
		doc.VectorModel = a.VectorModel
	}
	for id, tbl := range a.ThreatTables {
		if tbl == nil {
			continue
		}
		if doc.ThreatTables == nil {
			doc.ThreatTables = make(map[string]*VectorTable)
		}
		doc.ThreatTables[id] = tbl
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// orNil keeps a list emptied by removals encoding as null, as a list
// never filled does.
func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// ReadJSON deserializes an analysis document, installing standard models
// where the document does not override them, and validates the result.
func ReadJSON(r io.Reader) (*Analysis, error) {
	var doc analysisDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("tara: decode analysis: %w", err)
	}
	if doc.Item == nil {
		return nil, fmt.Errorf("tara: analysis document without item")
	}
	a := NewAnalysis(doc.Item)
	a.Damages, a.Threats, a.Paths = doc.Damages, doc.Threats, doc.Paths
	if doc.VectorModel != nil {
		a.VectorModel = doc.VectorModel
	}
	if len(doc.ThreatTables) > 0 {
		a.ThreatTables = doc.ThreatTables
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("tara: decoded analysis invalid: %w", err)
	}
	return a, nil
}

// vectorTableJSON is the wire form of a VectorTable.
type vectorTableJSON struct {
	Name    string                             `json:"name"`
	Ratings map[AttackVector]FeasibilityRating `json:"ratings"`
}

// MarshalJSON encodes the table as {"name":…,"ratings":{vector:rating}},
// vectors and ratings by display name. TARA documents and op batches
// carry tables in this form.
func (t *VectorTable) MarshalJSON() ([]byte, error) {
	return json.Marshal(vectorTableJSON{Name: t.Name, Ratings: t.ratings})
}

// UnmarshalJSON decodes the MarshalJSON form, validating it through
// NewVectorTable.
func (t *VectorTable) UnmarshalJSON(data []byte) error {
	var doc vectorTableJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	tbl, err := NewVectorTable(doc.Name, doc.Ratings)
	if err != nil {
		return err
	}
	*t = *tbl
	return nil
}

// MarshalText returns the display name.
func (p SecurityProperty) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a display name.
func (p *SecurityProperty) UnmarshalText(b []byte) (err error) {
	*p, err = parseName(string(b), PropertyConfidentiality, PropertyNonRepudiation, "security property")
	return err
}

// MarshalText returns the display name.
func (c ImpactCategory) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a display name.
func (c *ImpactCategory) UnmarshalText(b []byte) (err error) {
	*c, err = parseName(string(b), CategorySafety, CategoryPrivacy, "impact category")
	return err
}

// MarshalText returns the display name.
func (r ImpactRating) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a rating name with ParseImpact.
func (r *ImpactRating) UnmarshalText(b []byte) (err error) {
	*r, err = ParseImpact(string(b))
	return err
}

// MarshalText returns the display name.
func (s STRIDECategory) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a display name.
func (s *STRIDECategory) UnmarshalText(b []byte) (err error) {
	*s, err = parseName(string(b), Spoofing, ElevationOfPrivilege, "STRIDE category")
	return err
}

// MarshalText returns the display name.
func (p AttackerProfile) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a display name.
func (p *AttackerProfile) UnmarshalText(b []byte) (err error) {
	*p, err = parseName(string(b), ProfileInsider, ProfileRemote, "attacker profile")
	return err
}

// MarshalText returns the display name.
func (v AttackVector) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a vector name with ParseVector.
func (v *AttackVector) UnmarshalText(b []byte) (err error) {
	*v, err = ParseVector(string(b))
	return err
}

// MarshalText returns the display name.
func (r FeasibilityRating) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a rating name with ParseFeasibility.
func (r *FeasibilityRating) UnmarshalText(b []byte) (err error) {
	*r, err = ParseFeasibility(string(b))
	return err
}

// parseName returns the value in first..last whose display name equals s
// under normalizeName.
func parseName[T interface {
	~int
	String() string
}](s string, first, last T, what string) (T, error) {
	for v := first; v <= last; v++ {
		if normalizeName(v.String()) == normalizeName(s) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("tara: unknown %s %q", what, s)
}
