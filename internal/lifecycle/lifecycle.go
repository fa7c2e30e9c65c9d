// Package lifecycle models the ISO/SAE 21434 development life cycle of
// Fig. 2: the V-model phases from item definition to production
// readiness, with TARA reprocessing triggered at each phase transition
// and on field events (vulnerability discoveries). The PSP framework
// hooks its dynamic weight regeneration into these reprocessing points.
package lifecycle

import (
	"fmt"
	"sort"
	"sync"
)

// Phase is a development phase of the Fig. 2 V-model.
type Phase int

// Development phases, in lifecycle order. Each maps to the ISO/SAE 21434
// clause noted in the figure.
const (
	PhaseItemDefinition          Phase = iota + 1 // Clause 9.3
	PhaseGoalsAndConcepts                         // Clauses 9.4–9.5
	PhaseDesign                                   // Clause 10
	PhaseImplementation                           // Clause 10
	PhaseIntegrationVerification                  // Clause 10
	PhaseFunctionalTesting                        // Clause 11 (functional testing & vulnerability scanning)
	PhaseFuzzTesting                              // Clause 11
	PhasePenTesting                               // Clause 11
	PhaseProductionReadiness
)

var phaseNames = map[Phase]string{
	PhaseItemDefinition:          "Item Definition",
	PhaseGoalsAndConcepts:        "Goals & Concepts",
	PhaseDesign:                  "Design",
	PhaseImplementation:          "Implementation",
	PhaseIntegrationVerification: "Integration & Verification",
	PhaseFunctionalTesting:       "Functional Testing & Vulnerability Scanning",
	PhaseFuzzTesting:             "Fuzz Testing",
	PhasePenTesting:              "Pen Testing",
	PhaseProductionReadiness:     "Production Readiness",
}

// String returns the phase name used in Fig. 2.
func (p Phase) String() string {
	if s, ok := phaseNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Valid reports whether p is a defined phase.
func (p Phase) Valid() bool {
	return p >= PhaseItemDefinition && p <= PhaseProductionReadiness
}

// reprocessingPhases are the transitions Fig. 2 marks with
// "TARA REPROCESSING": entering any verification/testing phase and
// production readiness re-runs the TARA.
var reprocessingPhases = map[Phase]bool{
	PhaseGoalsAndConcepts:        true,
	PhaseIntegrationVerification: true,
	PhaseFunctionalTesting:       true,
	PhaseFuzzTesting:             true,
	PhasePenTesting:              true,
	PhaseProductionReadiness:     true,
}

// TriggersReprocessing reports whether entering the phase re-runs TARA.
func (p Phase) TriggersReprocessing() bool { return reprocessingPhases[p] }

// Event is a recorded lifecycle event.
type Event struct {
	// Sequence is a monotonically increasing event number.
	Sequence int
	// Phase is the phase in effect when the event fired.
	Phase Phase
	// Kind distinguishes "advance", "tara-reprocessing" and
	// "field-vulnerability".
	Kind string
	// Note carries free-text detail.
	Note string
}

// ReprocessFunc is the callback invoked whenever TARA reprocessing
// triggers; the PSP framework installs its weight-regeneration pipeline
// here. Returning an error aborts the transition.
type ReprocessFunc func(p Phase, reason string) error

// Lifecycle is the phase machine. It is safe for concurrent use.
type Lifecycle struct {
	mu        sync.Mutex
	current   Phase
	events    []Event
	seq       int
	reprocess ReprocessFunc
}

// New returns a lifecycle at the item-definition phase. reprocess may be
// nil for a pure recording machine.
func New(reprocess ReprocessFunc) *Lifecycle {
	return &Lifecycle{current: PhaseItemDefinition, reprocess: reprocess}
}

// Current returns the phase in effect.
func (lc *Lifecycle) Current() Phase {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.current
}

// Advance moves to the next phase in order, firing TARA reprocessing when
// the entered phase requires it. Advancing past production readiness is
// an error.
func (lc *Lifecycle) Advance() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.current >= PhaseProductionReadiness {
		return fmt.Errorf("lifecycle: already at %s", lc.current)
	}
	next := lc.current + 1
	if next.TriggersReprocessing() {
		if err := lc.fireLocked(next, "phase entry"); err != nil {
			return err
		}
	}
	lc.current = next
	lc.record("advance", fmt.Sprintf("entered %s", next))
	return nil
}

// FieldVulnerability records a vulnerability detected in the field and
// forces TARA reprocessing regardless of the current phase — the
// "TARA is typically called upon during production phases when a
// vulnerability is detected in the field" path of the paper.
func (lc *Lifecycle) FieldVulnerability(desc string) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.record("field-vulnerability", desc)
	return lc.fireLocked(lc.current, "field vulnerability: "+desc)
}

// fireLocked invokes the reprocessing callback and records the event.
func (lc *Lifecycle) fireLocked(p Phase, reason string) error {
	if lc.reprocess != nil {
		if err := lc.reprocess(p, reason); err != nil {
			return fmt.Errorf("lifecycle: TARA reprocessing at %s: %w", p, err)
		}
	}
	lc.record("tara-reprocessing", reason)
	return nil
}

func (lc *Lifecycle) record(kind, note string) {
	lc.seq++
	lc.events = append(lc.events, Event{
		Sequence: lc.seq, Phase: lc.current, Kind: kind, Note: note,
	})
}

// Events returns a copy of the recorded events in sequence order.
func (lc *Lifecycle) Events() []Event {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make([]Event, len(lc.events))
	copy(out, lc.events)
	sort.Slice(out, func(i, j int) bool { return out[i].Sequence < out[j].Sequence })
	return out
}

// ReprocessingCount returns how many TARA reprocessing events fired.
func (lc *Lifecycle) ReprocessingCount() int {
	n := 0
	for _, e := range lc.Events() {
		if e.Kind == "tara-reprocessing" {
			n++
		}
	}
	return n
}

// RunToProduction advances through the full lifecycle from the current
// phase to production readiness.
func (lc *Lifecycle) RunToProduction() error {
	for lc.Current() < PhaseProductionReadiness {
		if err := lc.Advance(); err != nil {
			return err
		}
	}
	return nil
}
