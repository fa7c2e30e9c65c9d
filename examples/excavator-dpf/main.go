// Excavator DPF tampering: the paper's financial case study (Fig. 10,
// Fig. 11, Fig. 12, Equations 6 and 7).
//
// The example queries the social platform for excavator insider attacks
// in Europe (SAI ranking — DPF deletion comes out on top), then runs the
// financial workflow for the top attack: potential attacker estimation
// from sales data and annual reports, price mining of defeat-device
// listings, market value, break-even analysis and the adversary
// investment bound the anti-tampering architecture must withstand.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	psp "github.com/psp-framework/psp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	fw, err := psp.NewDefault(42)
	if err != nil {
		return err
	}

	// Step 1 — SAI ranking for "excavator, Europe" (Fig. 12).
	social, err := fw.RunSocial(context.Background(), psp.SocialInput{
		Application: "excavator",
		Region:      psp.RegionEurope,
	})
	if err != nil {
		return err
	}
	chart, err := psp.RenderSAIChart(social.Index, `SAI — query "excavator, Europe"`)
	if err != nil {
		return err
	}
	fmt.Fprint(w, chart)
	top, err := social.Index.Top()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntop insider attack: %s → running the financial model for it\n\n", top.Topic)

	// Step 2 — financial workflow (Fig. 10) for DPF tampering.
	res, err := fw.RunFinancial(psp.FinancialInput{
		Category:    "dpf-tampering",
		Application: "excavator",
		Region:      "EU",
		Year:        2022,
		MarketKind:  psp.NonMonopolistic,
		Maker:       "TerraMach",
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, psp.RenderFinancialSummary(res, "Financial feasibility — DPF tampering, excavators, Europe"))

	// The two headline numbers of the paper.
	fmt.Fprintf(w, "\nEquation 6: MV = %d × %s = %s per year\n", res.PAE, res.PPIA, res.MV)
	fmt.Fprintf(w, "Equation 7: the product must resist an adversary investment of %s\n\n", res.SecurityBudget)

	// Step 3 — break-even diagram (Fig. 11).
	diagram, err := psp.RenderBEPDiagram(res.Curve, "Break-even diagram (per attacker)")
	if err != nil {
		return err
	}
	fmt.Fprint(w, diagram)

	// Price survey detail: the clusters behind PPIA.
	fmt.Fprintln(w, "\nmined price bands (devices and services):")
	for _, c := range res.Survey.Clusters {
		fmt.Fprintf(w, "  %7.2f EUR × %d listings\n", c.Center, c.Size())
	}
	fmt.Fprintf(w, "dominant band vendors (n of Eq. 3): %d\n", res.Survey.CompetitorCount())
	return nil
}
