package tara

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// This file holds the incremental rating engine: the validate-once index
// over an Analysis, the dirty/memo tracker that makes re-rating
// proportional to the size of a change, and the Plan / Rate / Commit
// split of the monolithic Run loop.
//
// The dirty-tracking contract mirrors the fill-identity memos of the
// core result cache: a memoized *ThreatResult stays valid — and is
// reused pointer-identically, hence byte-identically — until a mutation
// touches the threat's inputs (the scenario itself, a linked damage or
// asset, a path of its attack subgraph, or a rating model). Mutations
// made through the Upsert*/Remove*/Set* API maintain the index and the
// dirty set precisely. Mutating the exported fields of an Analysis
// directly is still allowed for model-building compatibility: swapped
// slices, items or model tables are detected by pointer snapshot and
// trigger a full revalidation, but editing an entity's fields in place
// is invisible — call Invalidate after doing that.

// analysisIndex is the validate-time index over an analysis: ID-keyed
// entity maps plus the threat → attack-path adjacency. It is rebuilt by
// buildIndex (which fully validates the analysis) and maintained
// incrementally by the mutation API.
type analysisIndex struct {
	assets  map[string]*Asset
	damages map[string]*DamageScenario
	threats map[string]*ThreatScenario
	paths   map[string]*AttackPath
	// pathsByThreat keeps each threat's paths in registration order so
	// that feasibility tie-breaking (first best path wins) matches the
	// sequential scan of Analysis.Paths.
	pathsByThreat map[string][]*AttackPath
}

// buildIndex validates the whole analysis — item and element validity,
// unique IDs, referential integrity — and returns the index. It is the
// single-pass, map-backed replacement for the quadratic cross-check the
// old Validate/Run pair performed with linear lookups.
func buildIndex(a *Analysis) (*analysisIndex, error) {
	if a.Item == nil {
		return nil, fmt.Errorf("tara: analysis without item definition")
	}
	if err := a.Item.Validate(); err != nil {
		return nil, err
	}
	if err := a.checkModels(); err != nil {
		return nil, err
	}
	idx := &analysisIndex{
		assets:        make(map[string]*Asset, len(a.Item.Assets)),
		damages:       make(map[string]*DamageScenario, len(a.Damages)),
		threats:       make(map[string]*ThreatScenario, len(a.Threats)),
		paths:         make(map[string]*AttackPath, len(a.Paths)),
		pathsByThreat: make(map[string][]*AttackPath),
	}
	for _, as := range a.Item.Assets {
		idx.assets[as.ID] = as
	}
	for _, d := range a.Damages {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := idx.damages[d.ID]; dup {
			return nil, fmt.Errorf("tara: duplicate damage scenario ID %s", d.ID)
		}
		idx.damages[d.ID] = d
		for _, assetID := range d.AssetIDs {
			if idx.assets[assetID] == nil {
				return nil, fmt.Errorf("tara: damage scenario %s references unknown asset %s", d.ID, assetID)
			}
		}
	}
	for _, t := range a.Threats {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if _, dup := idx.threats[t.ID]; dup {
			return nil, fmt.Errorf("tara: duplicate threat scenario ID %s", t.ID)
		}
		idx.threats[t.ID] = t
		for _, dmgID := range t.DamageIDs {
			if idx.damages[dmgID] == nil {
				return nil, fmt.Errorf("tara: threat scenario %s references unknown damage scenario %s", t.ID, dmgID)
			}
		}
		for _, assetID := range t.AssetIDs {
			if idx.assets[assetID] == nil {
				return nil, fmt.Errorf("tara: threat scenario %s references unknown asset %s", t.ID, assetID)
			}
		}
	}
	for _, p := range a.Paths {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := idx.paths[p.ID]; dup {
			return nil, fmt.Errorf("tara: duplicate attack path ID %s", p.ID)
		}
		idx.paths[p.ID] = p
		if idx.threats[p.ThreatID] == nil {
			return nil, fmt.Errorf("tara: attack path %s references unknown threat scenario %s", p.ID, p.ThreatID)
		}
		idx.pathsByThreat[p.ThreatID] = append(idx.pathsByThreat[p.ThreatID], p)
	}
	for id, tbl := range a.ThreatTables {
		if tbl == nil {
			continue
		}
		if idx.threats[id] == nil {
			return nil, fmt.Errorf("tara: threat table override references unknown threat scenario %s", id)
		}
	}
	return idx, nil
}

// checkModels verifies that every rating model is installed.
func (a *Analysis) checkModels() error {
	if a.VectorModel == nil || a.PotentialModel == nil || a.Matrix == nil || a.CALModel == nil {
		name := ""
		if a.Item != nil {
			name = a.Item.Name
		}
		return fmt.Errorf("tara: analysis %s: missing rating model", name)
	}
	return nil
}

// threatsTouchingDamage returns the IDs of threats linking the damage.
func (idx *analysisIndex) threatsTouchingDamage(damageID string) []string {
	var out []string
	for id, t := range idx.threats {
		for _, d := range t.DamageIDs {
			if d == damageID {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// threatsTouchingAsset returns the IDs of threats referencing the asset
// directly or through one of their linked damage scenarios.
func (idx *analysisIndex) threatsTouchingAsset(assetID string) []string {
	damaged := make(map[string]bool)
	for id, d := range idx.damages {
		for _, as := range d.AssetIDs {
			if as == assetID {
				damaged[id] = true
				break
			}
		}
	}
	var out []string
	for id, t := range idx.threats {
		touched := false
		for _, as := range t.AssetIDs {
			if as == assetID {
				touched = true
				break
			}
		}
		if !touched {
			for _, d := range t.DamageIDs {
				if damaged[d] {
					touched = true
					break
				}
			}
		}
		if touched {
			out = append(out, id)
		}
	}
	return out
}

// tracker carries the engine state attached to an Analysis: the index,
// the dirty threat set, the per-threat result memos, the cumulative
// rating-call counter, and the pointer snapshot used to detect direct
// field mutation.
type tracker struct {
	idx   *analysisIndex
	dirty map[string]bool
	memo  map[string]*ThreatResult
	calls atomic.Uint64

	// Pointer snapshot of the analysis structure and models as of the
	// last index build or API mutation. A mismatch at Plan time means
	// the exported fields were mutated directly.
	item    *Item
	assets  []*Asset
	damages []*DamageScenario
	threats []*ThreatScenario
	paths   []*AttackPath

	vector    *VectorTable
	potential *AttackPotentialWeights
	bands     PotentialThresholds
	matrix    *RiskMatrix
	cal       *CALTable
	tables    map[string]*VectorTable
}

// newTracker builds a fresh tracker (everything dirty) around a built
// index, carrying the rating-call counter over from a predecessor.
func newTracker(a *Analysis, idx *analysisIndex, prev *tracker) *tracker {
	tr := &tracker{
		idx:   idx,
		dirty: make(map[string]bool),
		memo:  make(map[string]*ThreatResult),
	}
	if prev != nil {
		tr.calls.Store(prev.calls.Load())
	}
	tr.syncStructure(a)
	tr.syncModels(a)
	return tr
}

func samePtrs[T any](snap []*T, cur []*T) bool {
	if len(snap) != len(cur) {
		return false
	}
	for i := range cur {
		if snap[i] != cur[i] {
			return false
		}
	}
	return true
}

// structureMatches reports whether the analysis still holds exactly the
// entities the tracker indexed (by pointer identity).
func (tr *tracker) structureMatches(a *Analysis) bool {
	if tr.item != a.Item || a.Item == nil {
		return false
	}
	return samePtrs(tr.assets, a.Item.Assets) &&
		samePtrs(tr.damages, a.Damages) &&
		samePtrs(tr.threats, a.Threats) &&
		samePtrs(tr.paths, a.Paths)
}

// quickMatch is the O(1) plausibility check used by the public lookup
// accessors on every call: item identity, lengths, and boundary element
// identity. It trades exhaustiveness for constant cost; the mutation
// API keeps it exact, and direct slice surgery is caught by the full
// structureMatches at Plan time.
func (tr *tracker) quickMatch(a *Analysis) bool {
	if tr.item != a.Item || a.Item == nil {
		return false
	}
	if len(tr.assets) != len(a.Item.Assets) || len(tr.damages) != len(a.Damages) ||
		len(tr.threats) != len(a.Threats) || len(tr.paths) != len(a.Paths) {
		return false
	}
	if n := len(a.Damages); n > 0 && tr.damages[n-1] != a.Damages[n-1] {
		return false
	}
	if n := len(a.Threats); n > 0 && tr.threats[n-1] != a.Threats[n-1] {
		return false
	}
	if n := len(a.Paths); n > 0 && tr.paths[n-1] != a.Paths[n-1] {
		return false
	}
	return true
}

// modelsMatch reports whether the rating models are the ones last
// snapshotted (pointer identity; thresholds by value).
func (tr *tracker) modelsMatch(a *Analysis) bool {
	if tr.vector != a.VectorModel || tr.potential != a.PotentialModel ||
		tr.bands != a.PotentialBands || tr.matrix != a.Matrix || tr.cal != a.CALModel {
		return false
	}
	if len(tr.tables) != len(a.ThreatTables) {
		return false
	}
	for id, tbl := range a.ThreatTables {
		if tr.tables[id] != tbl {
			return false
		}
	}
	return true
}

func (tr *tracker) syncStructure(a *Analysis) {
	tr.item = a.Item
	tr.assets = append([]*Asset(nil), a.Item.Assets...)
	tr.damages = append([]*DamageScenario(nil), a.Damages...)
	tr.threats = append([]*ThreatScenario(nil), a.Threats...)
	tr.paths = append([]*AttackPath(nil), a.Paths...)
}

func (tr *tracker) syncModels(a *Analysis) {
	tr.vector = a.VectorModel
	tr.potential = a.PotentialModel
	tr.bands = a.PotentialBands
	tr.matrix = a.Matrix
	tr.cal = a.CALModel
	tr.tables = make(map[string]*VectorTable, len(a.ThreatTables))
	for id, tbl := range a.ThreatTables {
		tr.tables[id] = tbl
	}
}

func (tr *tracker) markAllDirty() {
	for id := range tr.idx.threats {
		tr.dirty[id] = true
	}
}

func (tr *tracker) markDirty(ids ...string) {
	for _, id := range ids {
		tr.dirty[id] = true
	}
}

// Invalidate drops all engine state attached to the analysis: the next
// Plan or Run fully revalidates and re-rates everything. Call it after
// mutating an entity's fields in place, which the pointer-snapshot
// change detection cannot see.
func (a *Analysis) Invalidate() { a.track = nil }

// RatingCalls returns the cumulative number of per-threat rating
// invocations performed on this analysis. It is the observability hook
// for verifying that incremental runs re-rate only dirty threats.
func (a *Analysis) RatingCalls() uint64 {
	if a.track == nil {
		return 0
	}
	return a.track.calls.Load()
}

// Plan is a prepared rating pass over an analysis: the set of dirty
// threat IDs to (re-)rate, in sorted order. Rate is pure with respect to
// the plan and safe to call concurrently for distinct or identical IDs;
// Commit is not safe for concurrent use and must run after all Rate
// calls finish.
type Plan struct {
	a  *Analysis
	tr *tracker
	// Dirty lists the threat scenario IDs that must be rated before
	// Commit, sorted ascending for deterministic fan-out.
	Dirty []string
}

// Plan validates the analysis (incrementally when the engine state is
// current) and returns the rating plan. A structurally unchanged,
// fully-memoized analysis yields an empty Dirty list.
func (a *Analysis) Plan() (*Plan, error) {
	tr := a.track
	if tr == nil || !tr.structureMatches(a) {
		idx, err := buildIndex(a)
		if err != nil {
			a.track = nil
			return nil, err
		}
		tr = newTracker(a, idx, a.track)
		a.track = tr
	} else if !tr.modelsMatch(a) {
		if err := a.checkModels(); err != nil {
			return nil, err
		}
		tr.markAllDirty()
		tr.syncModels(a)
	}
	dirty := make([]string, 0, len(tr.dirty))
	for _, t := range a.Threats {
		if tr.dirty[t.ID] || tr.memo[t.ID] == nil {
			dirty = append(dirty, t.ID)
		}
	}
	sort.Strings(dirty)
	return &Plan{a: a, tr: tr, Dirty: dirty}, nil
}

// Rate determines impact, feasibility, risk, treatment and CAL for one
// threat scenario of the plan. It reads only immutable plan state and is
// safe to call from multiple goroutines.
func (p *Plan) Rate(id string) (*ThreatResult, error) {
	t := p.tr.idx.threats[id]
	if t == nil {
		return nil, fmt.Errorf("tara: rate: unknown threat scenario %s", id)
	}
	p.tr.calls.Add(1)
	return rateThreat(p.a, p.tr.idx, t)
}

// Commit installs the rated results — one per Dirty entry, in Dirty
// order — into the memo table and assembles the full result set, with
// clean threats served from their memoized results byte-identically.
// Results are sorted by descending risk, then threat ID.
func (p *Plan) Commit(rated []*ThreatResult) ([]*ThreatResult, error) {
	if p.a.track != p.tr {
		return nil, fmt.Errorf("tara: commit: plan is stale (analysis was invalidated)")
	}
	if len(rated) != len(p.Dirty) {
		return nil, fmt.Errorf("tara: commit: %d results for %d dirty threats", len(rated), len(p.Dirty))
	}
	for i, r := range rated {
		if r == nil || r.Threat == nil || r.Threat.ID != p.Dirty[i] {
			return nil, fmt.Errorf("tara: commit: result %d does not match dirty threat %s", i, p.Dirty[i])
		}
		p.tr.memo[p.Dirty[i]] = r
	}
	for _, id := range p.Dirty {
		delete(p.tr.dirty, id)
	}
	results := make([]*ThreatResult, 0, len(p.a.Threats))
	for _, t := range p.a.Threats {
		r := p.tr.memo[t.ID]
		if r == nil {
			return nil, fmt.Errorf("tara: commit: no result for threat scenario %s (mutated during rating?)", t.ID)
		}
		results = append(results, r)
	}
	sortResults(results)
	return results, nil
}

func sortResults(results []*ThreatResult) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Risk != results[j].Risk {
			return results[i].Risk > results[j].Risk
		}
		return results[i].Threat.ID < results[j].Threat.ID
	})
}

// rateThreat is the pure per-threat rating function: impact aggregation,
// feasibility combination, risk matrix lookup, treatment suggestion and
// CAL determination.
func rateThreat(a *Analysis, idx *analysisIndex, t *ThreatScenario) (*ThreatResult, error) {
	impact, err := threatImpact(idx, t)
	if err != nil {
		return nil, err
	}
	feas, dom, err := threatFeasibility(a, idx, t)
	if err != nil {
		return nil, err
	}
	risk, err := a.Matrix.Risk(impact, feas)
	if err != nil {
		return nil, err
	}
	treatment, err := SuggestTreatment(risk)
	if err != nil {
		return nil, err
	}
	cal, err := a.CALModel.Determine(impact, dom)
	if err != nil {
		return nil, err
	}
	return &ThreatResult{
		Threat:         t,
		Impact:         impact,
		Feasibility:    feas,
		Risk:           risk,
		Treatment:      treatment,
		CAL:            cal,
		DominantVector: dom,
	}, nil
}

// threatImpact aggregates the overall impact of the threat's linked
// damage scenarios (maximum rule).
func threatImpact(idx *analysisIndex, t *ThreatScenario) (ImpactRating, error) {
	var maxImpact ImpactRating
	for _, dmgID := range t.DamageIDs {
		d := idx.damages[dmgID]
		if d == nil {
			return 0, fmt.Errorf("tara: threat scenario %s references unknown damage scenario %s", t.ID, dmgID)
		}
		if imp := d.OverallImpact(); imp > maxImpact {
			maxImpact = imp
		}
	}
	if !maxImpact.Valid() {
		return 0, fmt.Errorf("tara: threat scenario %s: no rated damage scenarios", t.ID)
	}
	return maxImpact, nil
}

// threatFeasibility combines the feasibility of the threat's attack
// paths. Paths carrying potential profiles use the attack potential-based
// approach; others use the vector-based table, honouring a per-threat
// table override when one is installed. Threats without analyzed paths
// fall back to their declared vector.
func threatFeasibility(a *Analysis, idx *analysisIndex, t *ThreatScenario) (FeasibilityRating, AttackVector, error) {
	table := a.VectorModel
	if tbl := a.ThreatTables[t.ID]; tbl != nil {
		table = tbl
	}
	paths := idx.pathsByThreat[t.ID]
	if len(paths) == 0 {
		r, err := table.Rating(t.Vector)
		return r, t.Vector, err
	}
	best, bestVector := FeasibilityRating(0), t.Vector
	for _, p := range paths {
		var r FeasibilityRating
		var err error
		if pathHasPotential(p) {
			r, err = p.RateByPotential(a.PotentialModel, a.PotentialBands)
		} else {
			r, err = p.RateByVector(table)
		}
		if err != nil {
			return 0, 0, err
		}
		if r > best {
			best, bestVector = r, p.DominantVector()
		}
	}
	return best, bestVector, nil
}
