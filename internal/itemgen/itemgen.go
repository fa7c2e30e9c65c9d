// Package itemgen bridges the vehicle architecture model and the TARA
// engine: it derives ISO/SAE 21434 item definitions (with standard asset
// skeletons and plausible threat scenarios) from ECUs of a topology, so
// a fleet-wide TARA can be bootstrapped mechanically and then refined by
// the analyst.
package itemgen

import (
	"fmt"
	"sort"

	"github.com/psp-framework/psp/internal/tara"
	"github.com/psp-framework/psp/internal/vehicle"
)

// DeriveItem builds an item definition for one ECU: a firmware asset
// (integrity/authenticity) plus one communication asset per attached
// bus (integrity/availability).
func DeriveItem(top *vehicle.Topology, ecuID string) (*tara.Item, error) {
	ecu := top.ECU(ecuID)
	if ecu == nil {
		return nil, fmt.Errorf("itemgen: unknown ECU %s", ecuID)
	}
	item := &tara.Item{
		Name:        ecu.Name,
		Description: fmt.Sprintf("%s (%s domain)", ecu.Name, ecu.Domain),
		Assets: []*tara.Asset{{
			ID:          ecu.ID + "-FW",
			Name:        ecu.Name + " firmware",
			Description: "Application firmware and calibration data",
			Properties:  []tara.SecurityProperty{tara.PropertyIntegrity, tara.PropertyAuthenticity},
			ECU:         ecu.ID,
		}},
	}
	for _, bus := range top.Buses() {
		attached := false
		for _, id := range bus.ECUIDs {
			if id == ecu.ID {
				attached = true
				break
			}
		}
		if !attached {
			continue
		}
		item.Assets = append(item.Assets, &tara.Asset{
			ID:          ecu.ID + "-" + bus.ID,
			Name:        fmt.Sprintf("%s traffic on %s", ecu.Name, bus.ID),
			Description: fmt.Sprintf("%s frames exchanged on the %s segment", bus.Kind, bus.ID),
			Properties:  []tara.SecurityProperty{tara.PropertyIntegrity, tara.PropertyAvailability},
			ECU:         ecu.ID,
		})
	}
	if err := item.Validate(); err != nil {
		return nil, fmt.Errorf("itemgen: derived item invalid: %w", err)
	}
	return item, nil
}

// surfaceVector maps an ECU's most remote attack surface onto the attack
// vector an outsider would use; insiders always have physical access.
func surfaceVector(ecu *vehicle.ECU) tara.AttackVector {
	switch {
	case ecu.Reachable(vehicle.SurfaceLongRange):
		return tara.VectorNetwork
	case ecu.Reachable(vehicle.SurfaceShortRange):
		return tara.VectorAdjacent
	default:
		return tara.VectorPhysical
	}
}

// DeriveAnalysis builds a full starter TARA for one ECU: the derived
// item, a tampering damage/threat pair on the firmware asset and — for
// safety-critical units — a DoS damage/threat pair on the first bus
// asset. Impacts default to Severe safety for safety-critical ECUs and
// Moderate operational otherwise; the analyst refines them afterwards.
func DeriveAnalysis(top *vehicle.Topology, ecuID string) (*tara.Analysis, error) {
	item, err := DeriveItem(top, ecuID)
	if err != nil {
		return nil, err
	}
	ecu := top.ECU(ecuID)
	a := tara.NewAnalysis(item)

	fwAsset := item.Assets[0]
	impacts := map[tara.ImpactCategory]tara.ImpactRating{
		tara.CategoryOperational: tara.ImpactModerate,
		tara.CategoryFinancial:   tara.ImpactModerate,
	}
	if ecu.SafetyCritical {
		impacts[tara.CategorySafety] = tara.ImpactSevere
	}
	a.AddDamage(&tara.DamageScenario{
		ID:          "DS-TAMPER",
		Description: fmt.Sprintf("Tampered %s alters vehicle behaviour in the field", fwAsset.Name),
		AssetIDs:    []string{fwAsset.ID},
		Impacts:     impacts,
	})
	a.AddThreat(&tara.ThreatScenario{
		ID:          "TS-TAMPER",
		Name:        ecu.Name + " firmware tampering",
		Description: "Unauthorized modification of firmware or calibration",
		DamageIDs:   []string{"DS-TAMPER"},
		AssetIDs:    []string{fwAsset.ID},
		Property:    tara.PropertyIntegrity,
		STRIDE:      tara.Tampering,
		Profiles:    []tara.AttackerProfile{tara.ProfileInsider, tara.ProfileRational, tara.ProfileLocal},
		Vector:      tara.VectorPhysical,
	})

	if ecu.SafetyCritical && len(item.Assets) > 1 {
		busAsset := item.Assets[1]
		a.AddDamage(&tara.DamageScenario{
			ID:          "DS-DOS",
			Description: fmt.Sprintf("Loss of %s while driving", busAsset.Name),
			AssetIDs:    []string{busAsset.ID},
			Impacts: map[tara.ImpactCategory]tara.ImpactRating{
				tara.CategorySafety: tara.ImpactSevere,
			},
		})
		a.AddThreat(&tara.ThreatScenario{
			ID:          "TS-DOS",
			Name:        ecu.Name + " communication DoS",
			Description: "Signal-extinction style denial of service on the bus segment",
			DamageIDs:   []string{"DS-DOS"},
			AssetIDs:    []string{busAsset.ID},
			Property:    tara.PropertyAvailability,
			STRIDE:      tara.DenialOfService,
			Profiles:    []tara.AttackerProfile{tara.ProfileOutsider, tara.ProfileMalicious},
			Vector:      surfaceVector(ecu),
		})
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("itemgen: derived analysis invalid: %w", err)
	}
	return a, nil
}

// hopVector maps a traversed bus segment onto the attack vector of the
// step: wireless attachment points are adjacent, everything wired needs
// at least local access.
func hopVector(kind vehicle.BusKind) tara.AttackVector {
	if kind == vehicle.BusWireless {
		return tara.VectorAdjacent
	}
	return tara.VectorLocal
}

// DerivePaths enumerates attack paths for a threat on a target ECU from
// the topology: one path per entry point of each surface class, with a
// step per traversed bus segment. Entry steps carry the vector of the
// surface class (long-range → Network, short-range → Adjacent,
// physical → Physical); traversal steps carry the bus vector. Paths are
// deduplicated by their step signature.
func DerivePaths(top *vehicle.Topology, targetID, threatID string) ([]*tara.AttackPath, error) {
	if _, err := top.AttackRoutes(vehicle.SurfacePhysical, targetID); err != nil {
		return nil, fmt.Errorf("itemgen: %w", err)
	}
	surfaces := []struct {
		class  vehicle.SurfaceClass
		vector tara.AttackVector
	}{
		{vehicle.SurfaceLongRange, tara.VectorNetwork},
		{vehicle.SurfaceShortRange, tara.VectorAdjacent},
		{vehicle.SurfacePhysical, tara.VectorPhysical},
	}
	var out []*tara.AttackPath
	seen := map[string]bool{}
	n := 0
	for _, s := range surfaces {
		routes, err := top.AttackRoutes(s.class, targetID)
		if err != nil {
			return nil, err
		}
		entries := make([]string, 0, len(routes))
		for entry := range routes {
			entries = append(entries, entry)
		}
		sort.Strings(entries)
		for _, entry := range entries {
			steps := []tara.AttackStep{{
				Description: fmt.Sprintf("compromise %s via %s", entry, s.class),
				Vector:      s.vector,
			}}
			for _, hop := range routes[entry] {
				bus := top.Bus(hop.BusID)
				steps = append(steps, tara.AttackStep{
					Description: fmt.Sprintf("pivot %s → %s over %s", hop.From, hop.To, hop.BusID),
					Vector:      hopVector(bus.Kind),
				})
			}
			sig := signature(steps)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			n++
			out = append(out, &tara.AttackPath{
				ID:       fmt.Sprintf("AP-%s-%02d", targetID, n),
				ThreatID: threatID,
				Steps:    steps,
			})
		}
	}
	return out, nil
}

func signature(steps []tara.AttackStep) string {
	sig := ""
	for _, s := range steps {
		sig += s.Description + "|" + s.Vector.String() + ";"
	}
	return sig
}
