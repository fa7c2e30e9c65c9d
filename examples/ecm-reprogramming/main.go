// ECM reprogramming: the paper's running example (Figs. 8 and 9).
//
// The example builds the ECM reprogramming threat scenario, asks the PSP
// framework to retune the ISO/SAE 21434 attack-vector table from social
// data over two time windows, and shows how the risk verdict of a full
// TARA flips once the retuned weights are installed:
//
//   - static G.9: physical attacks rate Very Low → risk R1 (Retain);
//   - PSP all-time: physical attacks rate High → risk R4 (Share);
//   - PSP since 2022: local (OBD) attacks take over — the trend
//     inversion the paper confirms against industry reports.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	psp "github.com/psp-framework/psp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func ecmThreat() *psp.ThreatScenario {
	return &psp.ThreatScenario{
		ID: "TS-01", Name: "ECM reprogramming",
		Description: "Owner-approved reflash of calibration maps (chip tuning, defeat devices)",
		DamageIDs:   []string{"DS-01"},
		Property:    psp.PropertyIntegrity,
		STRIDE:      psp.Tampering,
		Profiles:    []psp.AttackerProfile{psp.ProfileInsider, psp.ProfileRational, psp.ProfileLocal},
		Vector:      psp.VectorPhysical,
		Keywords:    []string{"chiptuning", "ecutune", "remap", "stage1"},
	}
}

func run(w io.Writer) error {
	fw, err := psp.NewDefault(42)
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Window 1: the full corpus (Fig. 9-B).
	allTime, err := fw.RunSocial(ctx, psp.SocialInput{
		Threats: []*psp.ThreatScenario{ecmThreat()},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, psp.RenderTuningComparison(allTime.OutsiderTable, allTime.Tunings[0]))

	// Window 2: posts since 2022 only (Fig. 9-C).
	recent, err := fw.RunSocial(ctx, psp.SocialInput{
		Since:   time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		Threats: []*psp.ThreatScenario{ecmThreat()},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nTime-window sensitivity (Fig. 9-C, data since 2022):")
	fmt.Fprint(w, psp.RenderVectorTable(recent.Tunings[0].Table))

	// Run the TARA twice: static weights, then PSP weights.
	for _, cfg := range []struct {
		label string
		table *psp.VectorTable
	}{
		{"static ISO/SAE 21434 G.9", psp.StandardVectorTable()},
		{"PSP-retuned (all time)", allTime.Tunings[0].Table},
	} {
		analysis := buildAnalysis()
		analysis.VectorModel = cfg.table
		results, err := analysis.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nTARA verdicts with %s:\n", cfg.label)
		for _, r := range results {
			fmt.Fprintf(w, "  %-20s feasibility=%-9s risk=%s treatment=%s\n",
				r.Threat.Name, r.Feasibility, r.Risk, r.Treatment)
		}
	}
	return nil
}

func buildAnalysis() *psp.Analysis {
	item := &psp.Item{
		Name: "Engine Control Module",
		Assets: []*psp.Asset{{
			ID: "ECM-FW", Name: "ECM firmware and calibration maps",
			Properties: []psp.SecurityProperty{psp.PropertyIntegrity},
			ECU:        "ECM",
		}},
	}
	a := psp.NewAnalysis(item)
	a.AddDamage(&psp.DamageScenario{
		ID:          "DS-01",
		Description: "Emission controls defeated; warranty and compliance exposure",
		AssetIDs:    []string{"ECM-FW"},
		Impacts: map[psp.ImpactCategory]psp.ImpactRating{
			psp.CategorySafety:    psp.ImpactModerate,
			psp.CategoryFinancial: psp.ImpactMajor,
		},
	})
	a.AddThreat(ecmThreat())
	a.AddPath(&psp.AttackPath{
		ID: "AP-01", ThreatID: "TS-01",
		Steps: []psp.AttackStep{
			{Description: "access cabin OBD port", Vector: psp.VectorLocal},
			{Description: "bench-flash modified calibration", Vector: psp.VectorPhysical},
		},
	})
	return a
}
