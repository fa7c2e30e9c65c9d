package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	psp "github.com/psp-framework/psp"
	"github.com/psp-framework/psp/internal/canbus"
	"github.com/psp-framework/psp/internal/lifecycle"
	"github.com/psp-framework/psp/internal/market"
	"github.com/psp-framework/psp/internal/report"
	"github.com/psp-framework/psp/internal/standards"
	"github.com/psp-framework/psp/internal/tara"
	"github.com/psp-framework/psp/internal/vehicle"
)

// env bundles the substrates shared by the experiments.
type env struct {
	fw   *psp.Framework
	seed int64
}

func newEnv(seed int64) (*env, error) {
	fw, err := psp.NewDefault(seed)
	if err != nil {
		return nil, err
	}
	return &env{fw: fw, seed: seed}, nil
}

// ecmThreat is the paper's running threat scenario.
func ecmThreat() *psp.ThreatScenario {
	return &psp.ThreatScenario{
		ID: "TS-ECM-01", Name: "ECM reprogramming",
		Description: "Owner-approved reflash of ECM calibration maps",
		DamageIDs:   []string{"DS-01"},
		Property:    psp.PropertyIntegrity,
		STRIDE:      psp.Tampering,
		Profiles:    []psp.AttackerProfile{psp.ProfileInsider, psp.ProfileRational, psp.ProfileLocal},
		Vector:      psp.VectorPhysical,
		Keywords:    []string{"chiptuning", "ecutune", "remap", "stage1"},
	}
}

type experiment struct {
	title string
	run   func(io.Writer, *env) error
}

// experimentOrder fixes the "all" output sequence. The x-prefixed
// entries are supplementary experiments backing Section II's claims and
// the paper's roadmap features.
var experimentOrder = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9b", "fig9c", "fig10", "fig11", "fig12", "eq6", "eq7",
	"xdos", "xpoison",
}

var experiments = map[string]experiment{
	"fig1":    {"Standards contribution graph (ISO/SAE 21434 ancestry)", runFig1},
	"fig2":    {"Development life cycle with TARA reprocessing", runFig2},
	"fig3":    {"Attack potential weights model (Annex G.2)", runFig3},
	"fig4":    {"Vehicle architecture attack-surface classes", runFig4},
	"fig5":    {"Attack vector-based approach (G.9, static)", runFig5},
	"fig6":    {"CAL determination matrix", runFig6},
	"fig7":    {"PSP social workflow end-to-end", runFig7},
	"fig8":    {"Outsider (A) vs PSP-tuned insider (B) weights", runFig8},
	"fig9b":   {"PSP-revised G.9 for ECM reprogramming, all-time window", runFig9B},
	"fig9c":   {"PSP-revised G.9 for ECM reprogramming, since 2022", runFig9C},
	"fig10":   {"Financial workflow end-to-end (excavator, Europe)", runFig10},
	"fig11":   {"Break-even diagram", runFig11},
	"fig12":   {"SAI ranking for excavator insider attacks", runFig12},
	"eq6":     {"Market value of DPF tampering (Equation 6)", runEq6},
	"eq7":     {"Adversary investment bound (Equation 7)", runEq7},
	"xdos":    {"Powertrain CAN DoS on the bus simulator (Section II)", runXDoS},
	"xpoison": {"SAI poisoning attack and defence (roadmap feature)", runXPoison},
}

func runFig1(w io.Writer, _ *env) error {
	g, err := standards.ISO21434Graph()
	if err != nil {
		return err
	}
	tbl := report.NewTable(fmt.Sprintf("Standards contributing to %s", g.Target),
		"Standard", "Relationship", "Domain")
	for _, c := range g.All() {
		tbl.AddRow(c.Standard, c.Strength.String(), c.Domain.String())
	}
	fmt.Fprint(w, tbl.Render())
	fmt.Fprintf(w, "IT-security share of contributors: %.0f%%\n", g.ITShare()*100)
	return nil
}

func runFig2(w io.Writer, _ *env) error {
	lc := lifecycle.New(nil)
	if err := lc.RunToProduction(); err != nil {
		return err
	}
	if err := lc.FieldVulnerability("field CAN DoS report"); err != nil {
		return err
	}
	tbl := report.NewTable("Life cycle events (TARA reprocessing marked)",
		"#", "Phase", "Event", "Note")
	for _, e := range lc.Events() {
		tbl.AddRow(fmt.Sprintf("%d", e.Sequence), e.Phase.String(), e.Kind, e.Note)
	}
	fmt.Fprint(w, tbl.Render())
	fmt.Fprintf(w, "TARA reprocessing events: %d\n", lc.ReprocessingCount())
	return nil
}

func runFig3(w io.Writer, _ *env) error {
	fmt.Fprint(w, report.PotentialWeights(tara.StandardPotentialWeights()))
	// Worked aggregations: the paper's powertrain-insider argument.
	weights := tara.StandardPotentialWeights()
	bands := tara.StandardPotentialThresholds()
	insider := tara.AttackPotentialInput{
		Time: tara.TimeOneWeek, Expertise: tara.ExpertiseProficient,
		Knowledge: tara.KnowledgePublic, Window: tara.WindowUnlimited,
		Equipment: tara.EquipmentSpecialized,
	}
	remote := tara.AttackPotentialInput{
		Time: tara.TimeBeyondSixMonths, Expertise: tara.ExpertiseMultipleExperts,
		Knowledge: tara.KnowledgeConfidential, Window: tara.WindowDifficult,
		Equipment: tara.EquipmentBespoke,
	}
	for _, c := range []struct {
		name string
		in   tara.AttackPotentialInput
	}{
		{"powertrain insider (unlimited access, OBD tools)", insider},
		{"remote attacker without FOTA", remote},
	} {
		v, err := weights.Potential(c.in)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: potential %d → %s\n", c.name, v, bands.Rating(v))
	}
	return nil
}

func runFig4(w io.Writer, _ *env) error {
	top, err := vehicle.ReferenceArchitecture()
	if err != nil {
		return err
	}
	tbl := report.NewTable("ECU attack-surface classes (Fig. 4 colour coding)",
		"ECU", "Name", "Domain", "Long-range", "Short-range", "Physical", "Safety-critical")
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, e := range top.ECUs() {
		tbl.AddRow(e.ID, e.Name, e.Domain.String(),
			yn(e.Reachable(vehicle.SurfaceLongRange)),
			yn(e.Reachable(vehicle.SurfaceShortRange)),
			yn(e.Reachable(vehicle.SurfacePhysical)),
			yn(e.SafetyCritical))
	}
	fmt.Fprint(w, tbl.Render())
	hops, err := top.Route("OBD", "ECM")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "attack route OBD → ECM: %d hops via gateway\n", len(hops))
	return nil
}

func runFig5(w io.Writer, _ *env) error {
	fmt.Fprint(w, report.VectorTable(tara.StandardVectorTable()))
	fmt.Fprintln(w, "Note: the static table rates remote attacks highest regardless of domain —")
	fmt.Fprintln(w, "the bias the PSP framework corrects for insider-dominated scenarios.")
	return nil
}

func runFig6(w io.Writer, _ *env) error {
	cal := tara.StandardCALTable()
	fmt.Fprint(w, report.CALTable(cal))
	maxPhys, err := cal.MaxForVector(tara.VectorPhysical)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ceiling for physical attacks: %s (the paper's powertrain DoS concern)\n", maxPhys)
	return nil
}

func runFig7(w io.Writer, env *env) error {
	res, err := env.fw.RunSocial(context.Background(), psp.SocialInput{
		Threats: []*psp.ThreatScenario{ecmThreat()},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.SAITable(res.Index, "Social Attraction Index (full corpus)"))
	fmt.Fprintln(w, "\nauto-learned keywords (block 5):")
	if len(res.Learned) == 0 {
		fmt.Fprintln(w, "  none")
	}
	topics := make([]string, 0, len(res.Learned))
	for topic := range res.Learned {
		topics = append(topics, topic)
	}
	slices.Sort(topics)
	for _, topic := range topics {
		fmt.Fprintf(w, "  %s: %v\n", topic, res.Learned[topic])
	}
	fmt.Fprintf(w, "\nthreat tunings generated (block 12): %d\n", len(res.Tunings))
	return nil
}

func runFig8(w io.Writer, env *env) error {
	res, err := env.fw.RunSocial(context.Background(), psp.SocialInput{
		Threats: []*psp.ThreatScenario{ecmThreat()},
	})
	if err != nil {
		return err
	}
	if len(res.Tunings) == 0 {
		return fmt.Errorf("no tuning produced")
	}
	fmt.Fprint(w, report.TuningComparison(res.OutsiderTable, res.Tunings[0]))
	return nil
}

func runFig9B(w io.Writer, env *env) error {
	fmt.Fprint(w, report.VectorTable(tara.StandardVectorTable()))
	res, err := env.fw.RunSocial(context.Background(), psp.SocialInput{
		Threats: []*psp.ThreatScenario{ecmThreat()},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.VectorTable(res.Tunings[0].Table))
	return nil
}

func runFig9C(w io.Writer, env *env) error {
	res, err := env.fw.RunSocial(context.Background(), psp.SocialInput{
		Since:   time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		Threats: []*psp.ThreatScenario{ecmThreat()},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.VectorTable(res.Tunings[0].Table))
	fmt.Fprintln(w, "Trend inversion vs the all-time window: local (OBD) attacks now lead,")
	fmt.Fprintln(w, "matching the Upstream-confirmed shift the paper reports.")
	return nil
}

func excavatorFinancialInput() psp.FinancialInput {
	return psp.FinancialInput{
		Category:    market.CategoryDPFTampering,
		Application: "excavator",
		Region:      "EU",
		Year:        2022,
		MarketKind:  psp.NonMonopolistic,
		Maker:       market.MajorExcavatorMaker,
	}
}

func runFig10(w io.Writer, env *env) error {
	res, err := env.fw.RunFinancial(excavatorFinancialInput())
	if err != nil {
		return err
	}
	fmt.Fprint(w, psp.RenderFinancialSummary(res, "Financial workflow — DPF tampering, excavators, Europe"))
	return nil
}

func runFig11(w io.Writer, env *env) error {
	res, err := env.fw.RunFinancial(excavatorFinancialInput())
	if err != nil {
		return err
	}
	diagram, err := psp.RenderBEPDiagram(res.Curve, "Break-even diagram (revenue vs cost per attacker)")
	if err != nil {
		return err
	}
	fmt.Fprint(w, diagram)
	return nil
}

func runFig12(w io.Writer, env *env) error {
	res, err := env.fw.RunSocial(context.Background(), psp.SocialInput{
		Application: "excavator",
		Region:      psp.RegionEurope,
	})
	if err != nil {
		return err
	}
	chart, err := psp.RenderSAIChart(res.Index, `SAI — query "excavator, Europe"`)
	if err != nil {
		return err
	}
	fmt.Fprint(w, chart)
	return nil
}

func runEq6(w io.Writer, env *env) error {
	res, err := env.fw.RunFinancial(excavatorFinancialInput())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MV = PAE × PPIA = %d × %s = %s per year\n", res.PAE, res.PPIA, res.MV)
	fmt.Fprintf(w, "(paper: 1,406 × 360 EUR ≈ 506,160 EUR)\n")
	return nil
}

func runEq7(w io.Writer, env *env) error {
	res, err := env.fw.RunFinancial(excavatorFinancialInput())
	if err != nil {
		return err
	}
	margin, err := res.PPIA.Sub(res.VCU)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "FC = BEP × (PPIA − VCU) / n = %d × %s / %d = %s\n",
		res.PAE, margin, res.N, res.SecurityBudget)
	fmt.Fprintf(w, "(paper: 1,406 × 310 / 3 ≈ 145,286 EUR)\n")
	fmt.Fprintln(w, "→ the anti-tampering architecture must withstand an adversary investment of this size.")
	return nil
}

func runXDoS(w io.Writer, _ *env) error {
	bus := canbus.NewBus()
	torque := canbus.NewPeriodicSender("ECM-torque",
		canbus.Frame{ID: 0x0C0, Data: []byte{0x10, 0x27}}, 2)
	attacker := canbus.NewFlooder("attacker", canbus.Frame{ID: 0x000})
	attacker.Active = false
	if err := bus.Attach(torque, attacker); err != nil {
		return err
	}
	if err := bus.Run(200); err != nil {
		return err
	}
	baseline := torque.DeliveryRate()
	attacker.Active = true
	g0, d0, _ := torque.Stats()
	if err := bus.Run(200); err != nil {
		return err
	}
	g1, d1, _ := torque.Stats()
	underAttack := float64(d1-d0) / float64(g1-g0)
	fmt.Fprintf(w, "torque frame delivery: %.0f%% baseline → %.0f%% under signal-extinction DoS\n",
		baseline*100, underAttack*100)
	cal, err := tara.StandardCALTable().Determine(tara.ImpactSevere, tara.VectorPhysical)
	if err != nil {
		return err
	}
	feas, err := tara.StandardVectorTable().Rating(tara.VectorPhysical)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "standard TARA verdict: feasibility=%s, CAL=%s — despite a total outage of a\n", feas, cal)
	fmt.Fprintln(w, "safety-critical signal (the Section II mismatch PSP corrects).")
	return nil
}

func runXPoison(w io.Writer, env *env) error {
	store, err := psp.DefaultSocialStore(env.seed)
	if err != nil {
		return err
	}
	campaign, err := psp.InjectPoison(psp.PoisonCampaign{
		Seed: env.seed, Tag: "gpsblocker", Application: "excavator",
		Region: psp.RegionEurope, Posts: 1500, Authors: 4,
		Start: time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2022, 9, 1, 0, 0, 0, 0, time.UTC),
		Views: 90000,
	})
	if err != nil {
		return err
	}
	if err := store.Add(campaign...); err != nil {
		return err
	}
	ds, err := psp.DefaultMarketDataset()
	if err != nil {
		return err
	}
	fw, err := psp.New(psp.Config{Searcher: store, Market: ds})
	if err != nil {
		return err
	}
	for _, filter := range []bool{false, true} {
		res, err := fw.RunSocial(context.Background(), psp.SocialInput{
			Application: "excavator", Region: psp.RegionEurope,
			DisableLearning: true, FilterInauthentic: filter,
		})
		if err != nil {
			return err
		}
		top, err := res.Index.Top()
		if err != nil {
			return err
		}
		label := "defence off"
		if filter {
			label = "defence on "
		}
		fmt.Fprintf(w, "%s: top entry %-22s (dropped %d inauthentic posts)\n",
			label, top.Topic, res.InauthenticFiltered)
	}
	fmt.Fprintln(w, "→ a 1,500-post bot campaign hijacks the unfiltered index; the authenticity")
	fmt.Fprintln(w, "  filter (duplicates, author bursts, engagement anomalies) restores the ranking.")
	return nil
}
