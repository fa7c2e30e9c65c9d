// Fleet TARA: a full-vehicle risk assessment over the Fig. 4 reference
// architecture, with the social platform consumed over HTTP — the
// deployment shape of the paper's prototype (PSP as a service next to an
// external social API).
//
// The example starts an in-process sociald endpoint, points the
// framework's client at it, runs one TARA per safety-critical ECU with
// both static and PSP-retuned weights, and prints the fleet risk
// register before/after.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"runtime"

	psp "github.com/psp-framework/psp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Serve the reference corpus over HTTP, as sociald would.
	store, err := psp.DefaultSocialStore(42)
	if err != nil {
		return err
	}
	server := httptest.NewServer(psp.NewSocialServer(store, psp.NewRateLimiter(200, 100)).Handler())
	defer server.Close()

	ds, err := psp.DefaultMarketDataset()
	if err != nil {
		return err
	}
	fw, err := psp.New(psp.Config{
		Searcher: psp.NewSocialClient(server.URL),
		Market:   ds,
		// Over a remote platform the workflow is latency-bound, so fan
		// the keyword and threat queries out across parallel requests.
		Concurrency: 2 * runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "social platform: sociald over HTTP (%d posts)\n\n", store.Len())

	// One insider tuning shared by the powertrain items.
	tuning, err := fw.RunSocial(context.Background(), psp.SocialInput{
		Threats: []*psp.ThreatScenario{{
			ID: "TS-TUNE", Name: "Powertrain reprogramming",
			DamageIDs: []string{"DS-X"},
			Property:  psp.PropertyIntegrity,
			STRIDE:    psp.Tampering,
			Profiles:  []psp.AttackerProfile{psp.ProfileInsider},
			Vector:    psp.VectorPhysical,
			Keywords:  []string{"chiptuning", "ecutune", "remap", "stage1", "dpfdelete", "egrremoval"},
		}},
	})
	if err != nil {
		return err
	}
	retuned := tuning.Tunings[0].Table

	items := fleetItems()
	for _, model := range []struct {
		label string
		table *psp.VectorTable
	}{
		{"static ISO/SAE 21434 G.9", psp.StandardVectorTable()},
		{"PSP-retuned insider weights", retuned},
	} {
		fmt.Fprintf(w, "== fleet risk register — %s ==\n", model.label)
		for _, item := range items {
			item.analysis.VectorModel = model.table
			results, err := item.analysis.Run()
			if err != nil {
				return fmt.Errorf("item %s: %w", item.analysis.Item.Name, err)
			}
			for _, r := range results {
				fmt.Fprintf(w, "  %-6s %-30s risk=%s (%-9s) CAL=%s\n",
					item.ecu, r.Threat.Name, r.Risk, r.Feasibility, r.CAL)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

type fleetItem struct {
	ecu      string
	analysis *psp.Analysis
}

// fleetItems builds one small TARA per safety-critical powertrain ECU of
// the reference architecture.
func fleetItems() []fleetItem {
	mk := func(ecu, name, threatName string, impact psp.ImpactRating) fleetItem {
		item := &psp.Item{
			Name: name,
			Assets: []*psp.Asset{{
				ID: ecu + "-FW", Name: name + " firmware",
				Properties: []psp.SecurityProperty{psp.PropertyIntegrity},
				ECU:        ecu,
			}},
		}
		a := psp.NewAnalysis(item)
		a.AddDamage(&psp.DamageScenario{
			ID:          "DS-1",
			Description: "tampered control function in the field",
			AssetIDs:    []string{ecu + "-FW"},
			Impacts: map[psp.ImpactCategory]psp.ImpactRating{
				psp.CategorySafety: impact,
			},
		})
		a.AddThreat(&psp.ThreatScenario{
			ID: "TS-1", Name: threatName,
			DamageIDs: []string{"DS-1"},
			AssetIDs:  []string{ecu + "-FW"},
			Property:  psp.PropertyIntegrity,
			STRIDE:    psp.Tampering,
			Profiles:  []psp.AttackerProfile{psp.ProfileInsider, psp.ProfileLocal},
			Vector:    psp.VectorPhysical,
		})
		return fleetItem{ecu: ecu, analysis: a}
	}
	return []fleetItem{
		mk("ECM", "Engine Control Module", "calibration reflash", psp.ImpactMajor),
		mk("TCM", "Transmission Control Module", "shift map tampering", psp.ImpactModerate),
		mk("DEFC", "Diesel Exhaust Fluid Controller", "emission defeat", psp.ImpactMajor),
		mk("BCU", "Brake Control Unit", "brake map tampering", psp.ImpactSevere),
	}
}
