package vehicle

import (
	"fmt"
	"sort"
	"strings"
)

// ECU is an electronic control unit in the vehicle architecture.
type ECU struct {
	// ID is the short mnemonic used in Fig. 4 (ECM, TCM, BCM, ...).
	ID string
	// Name is the full unit name.
	Name string
	// Domain is the functional domain hosting the ECU.
	Domain Domain
	// Surfaces lists the attack-surface classes through which the ECU is
	// directly reachable. Every ECU is at least physically reachable.
	Surfaces []SurfaceClass
	// SafetyCritical marks hard real-time safety relevance (powertrain /
	// chassis control units).
	SafetyCritical bool
}

// Reachable reports whether the ECU is directly reachable through the
// given surface class.
func (e *ECU) Reachable(s SurfaceClass) bool {
	for _, c := range e.Surfaces {
		if c == s {
			return true
		}
	}
	return false
}

// Bus is a communication segment connecting two or more ECUs.
type Bus struct {
	// ID names the bus segment (e.g. "CAN-PT").
	ID string
	// Kind is the bus technology.
	Kind BusKind
	// ECUIDs lists the attached units.
	ECUIDs []string
}

// Topology is the vehicle network: ECUs connected by buses, typically
// star-shaped around a central gateway.
type Topology struct {
	name  string
	ecus  map[string]*ECU
	buses map[string]*Bus
	// adjacency: ECU ID → neighbouring ECU IDs (via any shared bus).
	adj map[string]map[string]string // neighbour → bus ID used
}

// NewTopology returns an empty topology with the given name.
func NewTopology(name string) *Topology {
	return &Topology{
		name:  name,
		ecus:  make(map[string]*ECU),
		buses: make(map[string]*Bus),
		adj:   make(map[string]map[string]string),
	}
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// AddECU registers an ECU. Adding a duplicate or invalid ECU is an error.
func (t *Topology) AddECU(e *ECU) error {
	if e == nil || strings.TrimSpace(e.ID) == "" {
		return fmt.Errorf("vehicle: ECU with empty ID")
	}
	if !e.Domain.Valid() {
		return fmt.Errorf("vehicle: ECU %s: invalid domain %d", e.ID, int(e.Domain))
	}
	if len(e.Surfaces) == 0 {
		return fmt.Errorf("vehicle: ECU %s: no attack surfaces (every ECU is at least physically reachable)", e.ID)
	}
	for _, s := range e.Surfaces {
		if !s.Valid() {
			return fmt.Errorf("vehicle: ECU %s: invalid surface class %d", e.ID, int(s))
		}
	}
	if _, dup := t.ecus[e.ID]; dup {
		return fmt.Errorf("vehicle: duplicate ECU %s", e.ID)
	}
	t.ecus[e.ID] = e
	return nil
}

// AddBus registers a bus segment. All attached ECUs must already exist.
func (t *Topology) AddBus(b *Bus) error {
	if b == nil || strings.TrimSpace(b.ID) == "" {
		return fmt.Errorf("vehicle: bus with empty ID")
	}
	if !b.Kind.Valid() {
		return fmt.Errorf("vehicle: bus %s: invalid kind %d", b.ID, int(b.Kind))
	}
	if len(b.ECUIDs) < 2 {
		return fmt.Errorf("vehicle: bus %s: needs at least two attached ECUs", b.ID)
	}
	if _, dup := t.buses[b.ID]; dup {
		return fmt.Errorf("vehicle: duplicate bus %s", b.ID)
	}
	for _, id := range b.ECUIDs {
		if _, ok := t.ecus[id]; !ok {
			return fmt.Errorf("vehicle: bus %s attaches unknown ECU %s", b.ID, id)
		}
	}
	t.buses[b.ID] = b
	for _, a := range b.ECUIDs {
		for _, z := range b.ECUIDs {
			if a == z {
				continue
			}
			if t.adj[a] == nil {
				t.adj[a] = make(map[string]string)
			}
			if _, ok := t.adj[a][z]; !ok {
				t.adj[a][z] = b.ID
			}
		}
	}
	return nil
}

// ECU returns the ECU with the given ID, or nil.
func (t *Topology) ECU(id string) *ECU { return t.ecus[id] }

// Bus returns the bus with the given ID, or nil.
func (t *Topology) Bus(id string) *Bus { return t.buses[id] }

// ECUs returns all ECUs sorted by ID.
func (t *Topology) ECUs() []*ECU {
	out := make([]*ECU, 0, len(t.ecus))
	for _, e := range t.ecus {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Buses returns all buses sorted by ID.
func (t *Topology) Buses() []*Bus {
	out := make([]*Bus, 0, len(t.buses))
	for _, b := range t.buses {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BySurface returns the ECUs directly reachable through the given surface
// class, sorted by ID — the per-colour grouping of Fig. 4.
func (t *Topology) BySurface(s SurfaceClass) []*ECU {
	var out []*ECU
	for _, e := range t.ECUs() {
		if e.Reachable(s) {
			out = append(out, e)
		}
	}
	return out
}

// Hop is one traversal step of a network path.
type Hop struct {
	// From and To are ECU IDs; BusID is the segment traversed.
	From, To, BusID string
}

// Route returns one shortest bus-level path between two ECUs as a list of
// hops, using breadth-first search. It returns an error when either ECU is
// unknown or no path exists. Neighbour exploration is ordered for
// determinism.
func (t *Topology) Route(fromID, toID string) ([]Hop, error) {
	if _, ok := t.ecus[fromID]; !ok {
		return nil, fmt.Errorf("vehicle: route: unknown ECU %s", fromID)
	}
	if _, ok := t.ecus[toID]; !ok {
		return nil, fmt.Errorf("vehicle: route: unknown ECU %s", toID)
	}
	if fromID == toID {
		return nil, nil
	}
	type visit struct {
		id   string
		prev *visit
		bus  string
	}
	start := &visit{id: fromID}
	queue := []*visit{start}
	seen := map[string]bool{fromID: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		neighbours := make([]string, 0, len(t.adj[cur.id]))
		for n := range t.adj[cur.id] {
			neighbours = append(neighbours, n)
		}
		sort.Strings(neighbours)
		for _, n := range neighbours {
			if seen[n] {
				continue
			}
			seen[n] = true
			v := &visit{id: n, prev: cur, bus: t.adj[cur.id][n]}
			if n == toID {
				var hops []Hop
				for w := v; w.prev != nil; w = w.prev {
					hops = append(hops, Hop{From: w.prev.id, To: w.id, BusID: w.bus})
				}
				// Reverse into from→to order.
				for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
					hops[i], hops[j] = hops[j], hops[i]
				}
				return hops, nil
			}
			queue = append(queue, v)
		}
	}
	return nil, fmt.Errorf("vehicle: no route from %s to %s", fromID, toID)
}

// EntryPoints returns the ECUs reachable through the given surface class;
// these are the attack entry points for that attacker type.
func (t *Topology) EntryPoints(s SurfaceClass) []*ECU { return t.BySurface(s) }

// AttackRoutes enumerates, for each entry point of the given surface
// class, a shortest route to the target ECU. Entry points with no route
// are skipped. The result maps entry ECU ID → hops.
func (t *Topology) AttackRoutes(s SurfaceClass, targetID string) (map[string][]Hop, error) {
	if _, ok := t.ecus[targetID]; !ok {
		return nil, fmt.Errorf("vehicle: attack routes: unknown target ECU %s", targetID)
	}
	out := make(map[string][]Hop)
	for _, entry := range t.EntryPoints(s) {
		if entry.ID == targetID {
			out[entry.ID] = nil
			continue
		}
		hops, err := t.Route(entry.ID, targetID)
		if err != nil {
			continue // disconnected entry point: not a viable route
		}
		out[entry.ID] = hops
	}
	return out, nil
}
