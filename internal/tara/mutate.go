package tara

import (
	"fmt"
)

// This file is the incremental mutation API of an Analysis. Every method
// validates eagerly — the entity itself and its outbound references on
// upsert, the absence of inbound references on removal — so the analysis
// stays valid after every successful call; on error nothing changes.
// Each mutation maintains the engine index and marks exactly the
// affected threats dirty, so the next run re-rates only those.

// ensureTracker returns current engine state, building it (and thereby
// fully validating the analysis) if absent or stale.
func (a *Analysis) ensureTracker() (*tracker, error) {
	if tr := a.track; tr != nil && tr.structureMatches(a) {
		return tr, nil
	}
	idx, err := buildIndex(a)
	if err != nil {
		a.track = nil
		return nil, err
	}
	a.track = newTracker(a, idx, a.track)
	return a.track, nil
}

// UpsertAsset adds or replaces an asset of the item. Threats referencing
// the asset — directly or through a damage scenario — are marked dirty.
func (a *Analysis) UpsertAsset(as *Asset) error {
	if as == nil {
		return fmt.Errorf("tara: upsert of nil asset")
	}
	if err := as.Validate(); err != nil {
		return err
	}
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	if _, exists := tr.idx.assets[as.ID]; exists {
		for i, old := range a.Item.Assets {
			if old.ID == as.ID {
				a.Item.Assets[i] = as
				break
			}
		}
	} else {
		a.Item.Assets = append(a.Item.Assets, as)
	}
	tr.idx.assets[as.ID] = as
	tr.markDirty(tr.idx.threatsTouchingAsset(as.ID)...)
	tr.syncStructure(a)
	return nil
}

// RemoveAsset deletes an asset. It is an error if any damage or threat
// scenario still references it, or if it is the item's last asset.
func (a *Analysis) RemoveAsset(id string) error {
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	if _, ok := tr.idx.assets[id]; !ok {
		return fmt.Errorf("tara: remove: unknown asset %s", id)
	}
	for _, d := range a.Damages {
		for _, assetID := range d.AssetIDs {
			if assetID == id {
				return fmt.Errorf("tara: cannot remove asset %s: referenced by damage scenario %s", id, d.ID)
			}
		}
	}
	for _, t := range a.Threats {
		for _, assetID := range t.AssetIDs {
			if assetID == id {
				return fmt.Errorf("tara: cannot remove asset %s: referenced by threat scenario %s", id, t.ID)
			}
		}
	}
	if len(a.Item.Assets) == 1 {
		return fmt.Errorf("tara: cannot remove asset %s: item %s would have no assets", id, a.Item.Name)
	}
	a.Item.Assets = removeByID(a.Item.Assets, func(x *Asset) string { return x.ID }, id)
	delete(tr.idx.assets, id)
	tr.syncStructure(a)
	return nil
}

// UpsertDamage adds or replaces a damage scenario. Its referenced assets
// must exist. Threats linking the scenario are marked dirty.
func (a *Analysis) UpsertDamage(d *DamageScenario) error {
	if d == nil {
		return fmt.Errorf("tara: upsert of nil damage scenario")
	}
	if err := d.Validate(); err != nil {
		return err
	}
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	for _, assetID := range d.AssetIDs {
		if tr.idx.assets[assetID] == nil {
			return fmt.Errorf("tara: damage scenario %s references unknown asset %s", d.ID, assetID)
		}
	}
	if _, exists := tr.idx.damages[d.ID]; exists {
		for i, old := range a.Damages {
			if old.ID == d.ID {
				a.Damages[i] = d
				break
			}
		}
	} else {
		a.Damages = append(a.Damages, d)
	}
	tr.idx.damages[d.ID] = d
	tr.markDirty(tr.idx.threatsTouchingDamage(d.ID)...)
	tr.syncStructure(a)
	return nil
}

// RemoveDamage deletes a damage scenario. It is an error if any threat
// scenario still links it.
func (a *Analysis) RemoveDamage(id string) error {
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	if _, ok := tr.idx.damages[id]; !ok {
		return fmt.Errorf("tara: remove: unknown damage scenario %s", id)
	}
	if refs := tr.idx.threatsTouchingDamage(id); len(refs) > 0 {
		return fmt.Errorf("tara: cannot remove damage scenario %s: referenced by %d threat scenario(s)", id, len(refs))
	}
	a.Damages = removeByID(a.Damages, func(x *DamageScenario) string { return x.ID }, id)
	delete(tr.idx.damages, id)
	tr.syncStructure(a)
	return nil
}

// UpsertThreat adds or replaces a threat scenario. Its referenced
// damages and assets must exist. The threat is marked dirty; on replace
// it keeps its attack-path subgraph and any per-threat table override.
func (a *Analysis) UpsertThreat(t *ThreatScenario) error {
	if t == nil {
		return fmt.Errorf("tara: upsert of nil threat scenario")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	for _, dmgID := range t.DamageIDs {
		if tr.idx.damages[dmgID] == nil {
			return fmt.Errorf("tara: threat scenario %s references unknown damage scenario %s", t.ID, dmgID)
		}
	}
	for _, assetID := range t.AssetIDs {
		if tr.idx.assets[assetID] == nil {
			return fmt.Errorf("tara: threat scenario %s references unknown asset %s", t.ID, assetID)
		}
	}
	if _, exists := tr.idx.threats[t.ID]; exists {
		for i, old := range a.Threats {
			if old.ID == t.ID {
				a.Threats[i] = t
				break
			}
		}
	} else {
		a.Threats = append(a.Threats, t)
	}
	tr.idx.threats[t.ID] = t
	tr.markDirty(t.ID)
	tr.syncStructure(a)
	return nil
}

// RemoveThreat deletes a threat scenario together with its attack-path
// subgraph and any per-threat table override.
func (a *Analysis) RemoveThreat(id string) error {
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	if _, ok := tr.idx.threats[id]; !ok {
		return fmt.Errorf("tara: remove: unknown threat scenario %s", id)
	}
	if len(tr.idx.pathsByThreat[id]) > 0 {
		kept := a.Paths[:0]
		for _, p := range a.Paths {
			if p.ThreatID == id {
				delete(tr.idx.paths, p.ID)
				continue
			}
			kept = append(kept, p)
		}
		a.Paths = kept
		delete(tr.idx.pathsByThreat, id)
	}
	a.Threats = removeByID(a.Threats, func(x *ThreatScenario) string { return x.ID }, id)
	delete(tr.idx.threats, id)
	delete(tr.dirty, id)
	delete(tr.memo, id)
	if a.ThreatTables[id] != nil {
		delete(a.ThreatTables, id)
	}
	tr.syncStructure(a)
	tr.syncModels(a)
	return nil
}

// UpsertPath adds or replaces an attack path. Its threat scenario must
// exist. The owning threat (both old and new on a re-link) is marked
// dirty — the attack-path subgraph is the incremental unit.
func (a *Analysis) UpsertPath(p *AttackPath) error {
	if p == nil {
		return fmt.Errorf("tara: upsert of nil attack path")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	if tr.idx.threats[p.ThreatID] == nil {
		return fmt.Errorf("tara: attack path %s references unknown threat scenario %s", p.ID, p.ThreatID)
	}
	if old, exists := tr.idx.paths[p.ID]; exists {
		for i, cur := range a.Paths {
			if cur.ID == p.ID {
				a.Paths[i] = p
				break
			}
		}
		if old.ThreatID != p.ThreatID {
			tr.markDirty(old.ThreatID)
		}
		tr.idx.paths[p.ID] = p
		tr.rebuildAdjacency(a)
	} else {
		a.Paths = append(a.Paths, p)
		tr.idx.paths[p.ID] = p
		tr.idx.pathsByThreat[p.ThreatID] = append(tr.idx.pathsByThreat[p.ThreatID], p)
	}
	tr.markDirty(p.ThreatID)
	tr.syncStructure(a)
	return nil
}

// RemovePath deletes an attack path, marking its threat dirty.
func (a *Analysis) RemovePath(id string) error {
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	p, ok := tr.idx.paths[id]
	if !ok {
		return fmt.Errorf("tara: remove: unknown attack path %s", id)
	}
	a.Paths = removeByID(a.Paths, func(x *AttackPath) string { return x.ID }, id)
	delete(tr.idx.paths, id)
	tr.rebuildAdjacency(a)
	tr.markDirty(p.ThreatID)
	tr.syncStructure(a)
	return nil
}

// rebuildAdjacency recomputes the threat → path adjacency from the path
// slice, preserving registration order.
func (tr *tracker) rebuildAdjacency(a *Analysis) {
	tr.idx.pathsByThreat = make(map[string][]*AttackPath)
	for _, p := range a.Paths {
		tr.idx.pathsByThreat[p.ThreatID] = append(tr.idx.pathsByThreat[p.ThreatID], p)
	}
}

// SetVectorModel swaps the vector-based feasibility table, marking every
// threat dirty.
func (a *Analysis) SetVectorModel(t *VectorTable) error {
	if t == nil {
		return fmt.Errorf("tara: nil vector table")
	}
	return a.setModel(func() { a.VectorModel = t })
}

// SetPotentialBands swaps the potential → feasibility thresholds,
// marking every threat dirty.
func (a *Analysis) SetPotentialBands(b PotentialThresholds) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return a.setModel(func() { a.PotentialBands = b })
}

// SetMatrix swaps the risk matrix, marking every threat dirty.
func (a *Analysis) SetMatrix(m *RiskMatrix) error {
	if m == nil {
		return fmt.Errorf("tara: nil risk matrix")
	}
	return a.setModel(func() { a.Matrix = m })
}

func (a *Analysis) setModel(apply func()) error {
	tr, err := a.ensureTracker()
	if err != nil {
		return err
	}
	apply()
	tr.markAllDirty()
	tr.syncModels(a)
	return nil
}

// SetThreatTable installs (or, with a nil table, clears) a per-threat
// vector table override, marking only that threat dirty. Installing a
// table rating-equal to the current one is a no-op: the threat stays
// clean and its memoized result remains valid. Returns whether the
// effective table changed.
func (a *Analysis) SetThreatTable(threatID string, table *VectorTable) (bool, error) {
	tr, err := a.ensureTracker()
	if err != nil {
		return false, err
	}
	if tr.idx.threats[threatID] == nil {
		return false, fmt.Errorf("tara: threat table override: unknown threat scenario %s", threatID)
	}
	cur := a.ThreatTables[threatID]
	if cur == nil && table == nil {
		return false, nil
	}
	if cur != nil && table != nil && cur.Equal(table) {
		// Rating-equivalent table: swap the pointer without dirtying.
		a.ThreatTables[threatID] = table
		tr.syncModels(a)
		return false, nil
	}
	if table == nil {
		delete(a.ThreatTables, threatID)
	} else {
		if a.ThreatTables == nil {
			a.ThreatTables = make(map[string]*VectorTable)
		}
		a.ThreatTables[threatID] = table
	}
	tr.markDirty(threatID)
	tr.syncModels(a)
	return true, nil
}

func removeByID[T any](s []*T, id func(*T) string, target string) []*T {
	kept := s[:0]
	for _, x := range s {
		if id(x) == target {
			continue
		}
		kept = append(kept, x)
	}
	return kept
}

// Clone returns a deep copy of the analysis entities — item, assets,
// damages, threats, paths — with no engine state attached, sharing the
// rating model tables (which are immutable by convention). A clone runs
// cold: its first Run rates every threat from scratch, which makes it
// the reference for incremental == cold equivalence checks.
func (a *Analysis) Clone() *Analysis {
	c := &Analysis{
		VectorModel:    a.VectorModel,
		PotentialModel: a.PotentialModel,
		PotentialBands: a.PotentialBands,
		Matrix:         a.Matrix,
		CALModel:       a.CALModel,
	}
	if a.Item != nil {
		item := &Item{Name: a.Item.Name, Description: a.Item.Description}
		for _, as := range a.Item.Assets {
			cp := *as
			cp.Properties = append([]SecurityProperty(nil), as.Properties...)
			item.Assets = append(item.Assets, &cp)
		}
		c.Item = item
	}
	for _, d := range a.Damages {
		cp := *d
		cp.AssetIDs = append([]string(nil), d.AssetIDs...)
		cp.Impacts = make(map[ImpactCategory]ImpactRating, len(d.Impacts))
		for k, v := range d.Impacts {
			cp.Impacts[k] = v
		}
		c.Damages = append(c.Damages, &cp)
	}
	for _, t := range a.Threats {
		cp := *t
		cp.DamageIDs = append([]string(nil), t.DamageIDs...)
		cp.AssetIDs = append([]string(nil), t.AssetIDs...)
		cp.Profiles = append([]AttackerProfile(nil), t.Profiles...)
		cp.Keywords = append([]string(nil), t.Keywords...)
		c.Threats = append(c.Threats, &cp)
	}
	for _, p := range a.Paths {
		cp := *p
		cp.Steps = make([]AttackStep, len(p.Steps))
		for i, s := range p.Steps {
			cp.Steps[i] = s
			if s.Potential != nil {
				pot := *s.Potential
				cp.Steps[i].Potential = &pot
			}
		}
		c.Paths = append(c.Paths, &cp)
	}
	if len(a.ThreatTables) > 0 {
		c.ThreatTables = make(map[string]*VectorTable, len(a.ThreatTables))
		for id, tbl := range a.ThreatTables {
			c.ThreatTables[id] = tbl
		}
	}
	return c
}
