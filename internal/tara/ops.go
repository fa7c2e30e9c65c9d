package tara

import (
	"encoding/json"
	"fmt"
	"io"
)

// Op is one mutation of an Analysis in the versioned tenant mutation
// API. Its JSON form embeds the entities in their analysis-document
// form, so the same keys and enumeration spellings work in both places.
type Op struct {
	// Kind selects the mutation.
	Kind OpKind `json:"op"`
	// Asset, Damage, Threat, Path carry the entity for the upsert kinds.
	Asset  *Asset          `json:"asset,omitempty"`
	Damage *DamageScenario `json:"damage,omitempty"`
	Threat *ThreatScenario `json:"threat,omitempty"`
	Path   *AttackPath     `json:"path,omitempty"`
	// ID names the entity for the remove kinds, and the threat for
	// set_threat_table.
	ID string `json:"id,omitempty"`
	// Table is the vector table for set_vector_model and
	// set_threat_table (nil clears a per-threat override).
	Table *VectorTable `json:"table,omitempty"`
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
