package tara

import (
	"encoding/json"
	"fmt"
	"io"
)

// Op is one mutation of an Analysis in the versioned tenant mutation
// API. Ops have a stable JSON form built from the same document types as
// the analysis wire format, so the same enumeration spellings work in
// both places.
type Op struct {
	// Kind selects the mutation.
	Kind OpKind
	// Asset, Damage, Threat, Path carry the entity for the upsert kinds.
	Asset  *Asset
	Damage *DamageScenario
	Threat *ThreatScenario
	Path   *AttackPath
	// ID names the entity for the remove kinds, and the threat for
	// set_threat_table.
	ID string
	// Table is the vector table for set_vector_model and
	// set_threat_table (nil clears a per-threat override).
	Table *VectorTable
}

// OpKind enumerates the mutation kinds.
type OpKind string

// Mutation kinds.
const (
	OpUpsertAsset    OpKind = "upsert_asset"
	OpRemoveAsset    OpKind = "remove_asset"
	OpUpsertDamage   OpKind = "upsert_damage"
	OpRemoveDamage   OpKind = "remove_damage"
	OpUpsertThreat   OpKind = "upsert_threat"
	OpRemoveThreat   OpKind = "remove_threat"
	OpUpsertPath     OpKind = "upsert_path"
	OpRemovePath     OpKind = "remove_path"
	OpSetVectorModel OpKind = "set_vector_model"
	OpSetThreatTable OpKind = "set_threat_table"
)

// opDoc is the wire form of an Op.
type opDoc struct {
	Op     string       `json:"op"`
	Asset  *assetDoc    `json:"asset,omitempty"`
	Damage *damageDoc   `json:"damage,omitempty"`
	Threat *threatDoc   `json:"threat,omitempty"`
	Path   *pathDoc     `json:"path,omitempty"`
	ID     string       `json:"id,omitempty"`
	Table  *VectorTable `json:"table,omitempty"`
}

// MarshalJSON serializes the op in its wire form.
func (o Op) MarshalJSON() ([]byte, error) {
	doc := &opDoc{Op: string(o.Kind), ID: o.ID}
	if o.Asset != nil {
		doc.Asset = encodeAsset(o.Asset)
	}
	if o.Damage != nil {
		doc.Damage = encodeDamage(o.Damage)
	}
	if o.Threat != nil {
		doc.Threat = encodeThreat(o.Threat)
	}
	if o.Path != nil {
		doc.Path = encodePath(o.Path)
	}
	doc.Table = o.Table
	return json.Marshal(doc)
}

// UnmarshalJSON parses the wire form.
func (o *Op) UnmarshalJSON(data []byte) error {
	var doc opDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	out := Op{Kind: OpKind(doc.Op), ID: doc.ID, Table: doc.Table}
	if doc.Asset != nil {
		as, err := decodeAsset(doc.Asset)
		if err != nil {
			return err
		}
		out.Asset = as
	}
	if doc.Damage != nil {
		d, err := decodeDamage(doc.Damage)
		if err != nil {
			return err
		}
		out.Damage = d
	}
	if doc.Threat != nil {
		t, err := decodeThreat(doc.Threat)
		if err != nil {
			return err
		}
		out.Threat = t
	}
	if doc.Path != nil {
		p, err := decodePath(doc.Path)
		if err != nil {
			return err
		}
		out.Path = p
	}
	*o = out
	return nil
}

// DecodeOps parses a JSON array of mutation ops.
func DecodeOps(r io.Reader) ([]Op, error) {
	var ops []Op
	if err := json.NewDecoder(r).Decode(&ops); err != nil {
		return nil, fmt.Errorf("tara: decode ops: %w", err)
	}
	return ops, nil
}

// Apply performs the op against the analysis.
func (o Op) Apply(a *Analysis) error {
	switch o.Kind {
	case OpUpsertAsset:
		if o.Asset == nil {
			return fmt.Errorf("tara: %s without asset", o.Kind)
		}
		return a.UpsertAsset(o.Asset)
	case OpRemoveAsset:
		return a.RemoveAsset(o.ID)
	case OpUpsertDamage:
		if o.Damage == nil {
			return fmt.Errorf("tara: %s without damage scenario", o.Kind)
		}
		return a.UpsertDamage(o.Damage)
	case OpRemoveDamage:
		return a.RemoveDamage(o.ID)
	case OpUpsertThreat:
		if o.Threat == nil {
			return fmt.Errorf("tara: %s without threat scenario", o.Kind)
		}
		return a.UpsertThreat(o.Threat)
	case OpRemoveThreat:
		return a.RemoveThreat(o.ID)
	case OpUpsertPath:
		if o.Path == nil {
			return fmt.Errorf("tara: %s without attack path", o.Kind)
		}
		return a.UpsertPath(o.Path)
	case OpRemovePath:
		return a.RemovePath(o.ID)
	case OpSetVectorModel:
		if o.Table == nil {
			return fmt.Errorf("tara: %s without table", o.Kind)
		}
		return a.SetVectorModel(o.Table)
	case OpSetThreatTable:
		_, err := a.SetThreatTable(o.ID, o.Table)
		return err
	default:
		return fmt.Errorf("tara: unknown op kind %q", o.Kind)
	}
}

// ApplyOps applies the ops in order, stopping at the first failure. It
// returns how many ops were applied; on error the applied prefix remains
// in effect (each op leaves the analysis valid), matching the partial
// batch semantics of the social ingest API.
func ApplyOps(a *Analysis, ops []Op) (int, error) {
	for i, op := range ops {
		if err := op.Apply(a); err != nil {
			return i, fmt.Errorf("tara: op %d (%s): %w", i, op.Kind, err)
		}
	}
	return len(ops), nil
}
