package tara

import (
	"encoding/json"
	"fmt"
	"io"
)

// TARA analyses are work products exchanged with assessors and suppliers
// (UNR-155 cascading). This file gives Analysis a stable JSON document
// form. Enumerations serialize as their display names, not integers, so
// documents stay meaningful to humans and robust against reordering of
// Go constants.

// analysisDoc is the wire form of an Analysis.
type analysisDoc struct {
	Item    *itemDoc     `json:"item"`
	Damages []*damageDoc `json:"damage_scenarios"`
	Threats []*threatDoc `json:"threat_scenarios"`
	Paths   []*pathDoc   `json:"attack_paths"`
	// Models: only the vector table is serialized (the PSP-tunable
	// part); potential weights, risk matrix and CAL table deserialize to
	// the standard defaults and can be overridden programmatically.
	VectorModel *VectorTable `json:"vector_model,omitempty"`
	// ThreatTables carries the per-threat vector table overrides learned
	// by the social loop.
	ThreatTables map[string]*VectorTable `json:"threat_tables,omitempty"`
}

type itemDoc struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Assets      []*assetDoc `json:"assets"`
}

type assetDoc struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Properties  []string `json:"properties"`
	ECU         string   `json:"ecu,omitempty"`
}

type damageDoc struct {
	ID          string            `json:"id"`
	Description string            `json:"description,omitempty"`
	AssetIDs    []string          `json:"asset_ids,omitempty"`
	Impacts     map[string]string `json:"impacts"`
}

type threatDoc struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	DamageIDs   []string `json:"damage_ids"`
	AssetIDs    []string `json:"asset_ids,omitempty"`
	Property    string   `json:"property"`
	STRIDE      string   `json:"stride"`
	Profiles    []string `json:"profiles,omitempty"`
	Vector      string   `json:"vector"`
	Keywords    []string `json:"keywords,omitempty"`
}

type pathDoc struct {
	ID       string     `json:"id"`
	ThreatID string     `json:"threat_id"`
	Steps    []*stepDoc `json:"steps"`
}

type stepDoc struct {
	Description string        `json:"description,omitempty"`
	Vector      string        `json:"vector"`
	Potential   *potentialDoc `json:"potential,omitempty"`
}

type potentialDoc struct {
	Time      int `json:"elapsed_time"`
	Expertise int `json:"expertise"`
	Knowledge int `json:"knowledge"`
	Window    int `json:"window"`
	Equipment int `json:"equipment"`
}

// WriteJSON serializes the analysis as an indented JSON document. The
// analysis is validated first: invalid work products must not circulate.
func (a *Analysis) WriteJSON(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("tara: refuse to serialize invalid analysis: %w", err)
	}
	doc := &analysisDoc{Item: encodeItem(a.Item)}
	for _, d := range a.Damages {
		doc.Damages = append(doc.Damages, encodeDamage(d))
	}
	for _, t := range a.Threats {
		doc.Threats = append(doc.Threats, encodeThreat(t))
	}
	for _, p := range a.Paths {
		doc.Paths = append(doc.Paths, encodePath(p))
	}
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
	item, err := decodeItem(doc.Item)
	if err != nil {
		return nil, err
	}
	a := NewAnalysis(item)
	for _, d := range doc.Damages {
		dec, err := decodeDamage(d)
		if err != nil {
			return nil, err
		}
		a.AddDamage(dec)
	}
	for _, t := range doc.Threats {
		dec, err := decodeThreat(t)
		if err != nil {
			return nil, err
		}
		a.AddThreat(dec)
	}
	for _, p := range doc.Paths {
		dec, err := decodePath(p)
		if err != nil {
			return nil, err
		}
		a.AddPath(dec)
	}
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

func encodeItem(it *Item) *itemDoc {
	doc := &itemDoc{Name: it.Name, Description: it.Description}
	for _, a := range it.Assets {
		doc.Assets = append(doc.Assets, encodeAsset(a))
	}
	return doc
}

func decodeItem(doc *itemDoc) (*Item, error) {
	it := &Item{Name: doc.Name, Description: doc.Description}
	for _, a := range doc.Assets {
		as, err := decodeAsset(a)
		if err != nil {
			return nil, err
		}
		it.Assets = append(it.Assets, as)
	}
	return it, nil
}

func encodeAsset(a *Asset) *assetDoc {
	props := make([]string, len(a.Properties))
	for i, p := range a.Properties {
		props[i] = p.String()
	}
	return &assetDoc{
		ID: a.ID, Name: a.Name, Description: a.Description,
		Properties: props, ECU: a.ECU,
	}
}

func decodeAsset(doc *assetDoc) (*Asset, error) {
	props := make([]SecurityProperty, 0, len(doc.Properties))
	for _, s := range doc.Properties {
		p, err := parseProperty(s)
		if err != nil {
			return nil, fmt.Errorf("asset %s: %w", doc.ID, err)
		}
		props = append(props, p)
	}
	return &Asset{
		ID: doc.ID, Name: doc.Name, Description: doc.Description,
		Properties: props, ECU: doc.ECU,
	}, nil
}

func encodeDamage(d *DamageScenario) *damageDoc {
	impacts := make(map[string]string, len(d.Impacts))
	for c, r := range d.Impacts {
		impacts[c.String()] = r.String()
	}
	return &damageDoc{
		ID: d.ID, Description: d.Description,
		AssetIDs: d.AssetIDs, Impacts: impacts,
	}
}

func decodeDamage(doc *damageDoc) (*DamageScenario, error) {
	impacts := make(map[ImpactCategory]ImpactRating, len(doc.Impacts))
	for cs, rs := range doc.Impacts {
		c, err := parseCategory(cs)
		if err != nil {
			return nil, fmt.Errorf("damage %s: %w", doc.ID, err)
		}
		r, err := ParseImpact(rs)
		if err != nil {
			return nil, fmt.Errorf("damage %s: %w", doc.ID, err)
		}
		impacts[c] = r
	}
	return &DamageScenario{
		ID: doc.ID, Description: doc.Description,
		AssetIDs: doc.AssetIDs, Impacts: impacts,
	}, nil
}

func encodeThreat(t *ThreatScenario) *threatDoc {
	profiles := make([]string, len(t.Profiles))
	for i, p := range t.Profiles {
		profiles[i] = p.String()
	}
	return &threatDoc{
		ID: t.ID, Name: t.Name, Description: t.Description,
		DamageIDs: t.DamageIDs, AssetIDs: t.AssetIDs,
		Property: t.Property.String(), STRIDE: t.STRIDE.String(),
		Profiles: profiles, Vector: t.Vector.String(), Keywords: t.Keywords,
	}
}

func decodeThreat(doc *threatDoc) (*ThreatScenario, error) {
	prop, err := parseProperty(doc.Property)
	if err != nil {
		return nil, fmt.Errorf("threat %s: %w", doc.ID, err)
	}
	stride, err := parseSTRIDE(doc.STRIDE)
	if err != nil {
		return nil, fmt.Errorf("threat %s: %w", doc.ID, err)
	}
	vector, err := ParseVector(doc.Vector)
	if err != nil {
		return nil, fmt.Errorf("threat %s: %w", doc.ID, err)
	}
	profiles := make([]AttackerProfile, 0, len(doc.Profiles))
	for _, s := range doc.Profiles {
		p, err := parseProfile(s)
		if err != nil {
			return nil, fmt.Errorf("threat %s: %w", doc.ID, err)
		}
		profiles = append(profiles, p)
	}
	return &ThreatScenario{
		ID: doc.ID, Name: doc.Name, Description: doc.Description,
		DamageIDs: doc.DamageIDs, AssetIDs: doc.AssetIDs,
		Property: prop, STRIDE: stride, Profiles: profiles,
		Vector: vector, Keywords: doc.Keywords,
	}, nil
}

func encodePath(p *AttackPath) *pathDoc {
	doc := &pathDoc{ID: p.ID, ThreatID: p.ThreatID}
	for _, s := range p.Steps {
		sd := &stepDoc{Description: s.Description, Vector: s.Vector.String()}
		if s.Potential != nil {
			sd.Potential = &potentialDoc{
				Time:      int(s.Potential.Time),
				Expertise: int(s.Potential.Expertise),
				Knowledge: int(s.Potential.Knowledge),
				Window:    int(s.Potential.Window),
				Equipment: int(s.Potential.Equipment),
			}
		}
		doc.Steps = append(doc.Steps, sd)
	}
	return doc
}

func decodePath(doc *pathDoc) (*AttackPath, error) {
	p := &AttackPath{ID: doc.ID, ThreatID: doc.ThreatID}
	for i, sd := range doc.Steps {
		v, err := ParseVector(sd.Vector)
		if err != nil {
			return nil, fmt.Errorf("path %s step %d: %w", doc.ID, i, err)
		}
		step := AttackStep{Description: sd.Description, Vector: v}
		if sd.Potential != nil {
			step.Potential = &AttackPotentialInput{
				Time:      ElapsedTime(sd.Potential.Time),
				Expertise: SpecialistExpertise(sd.Potential.Expertise),
				Knowledge: ItemKnowledge(sd.Potential.Knowledge),
				Window:    WindowOfOpportunity(sd.Potential.Window),
				Equipment: Equipment(sd.Potential.Equipment),
			}
		}
		p.Steps = append(p.Steps, step)
	}
	return p, nil
}

// vectorTableJSON is the wire form of a VectorTable: vector name →
// rating name.
type vectorTableJSON struct {
	Name    string            `json:"name"`
	Ratings map[string]string `json:"ratings"`
}

// MarshalJSON encodes the table as {"name":…,"ratings":{vector:rating}},
// vectors and ratings by display name. TARA documents, op batches and
// the monitor's persisted result all carry tables in this form.
func (t *VectorTable) MarshalJSON() ([]byte, error) {
	doc := vectorTableJSON{Name: t.Name, Ratings: make(map[string]string, len(t.ratings))}
	for v, r := range t.ratings {
		doc.Ratings[v.String()] = r.String()
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes the MarshalJSON form, validating it through
// NewVectorTable.
func (t *VectorTable) UnmarshalJSON(data []byte) error {
	var doc vectorTableJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	ratings := make(map[AttackVector]FeasibilityRating, len(doc.Ratings))
	for vs, rs := range doc.Ratings {
		v, err := ParseVector(vs)
		if err != nil {
			return err
		}
		r, err := ParseFeasibility(rs)
		if err != nil {
			return err
		}
		ratings[v] = r
	}
	tbl, err := NewVectorTable(doc.Name, ratings)
	if err != nil {
		return err
	}
	*t = *tbl
	return nil
}

// Name-based parsers for the enumerations that only had String methods.

func parseProperty(s string) (SecurityProperty, error) {
	for p := PropertyConfidentiality; p <= PropertyNonRepudiation; p++ {
		if normalizeName(p.String()) == normalizeName(s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("tara: unknown security property %q", s)
}

func parseCategory(s string) (ImpactCategory, error) {
	for c := CategorySafety; c <= CategoryPrivacy; c++ {
		if normalizeName(c.String()) == normalizeName(s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("tara: unknown impact category %q", s)
}

func parseSTRIDE(s string) (STRIDECategory, error) {
	for c := Spoofing; c <= ElevationOfPrivilege; c++ {
		if normalizeName(c.String()) == normalizeName(s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("tara: unknown STRIDE category %q", s)
}

func parseProfile(s string) (AttackerProfile, error) {
	for p := ProfileInsider; p <= ProfileRemote; p++ {
		if normalizeName(p.String()) == normalizeName(s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("tara: unknown attacker profile %q", s)
}
