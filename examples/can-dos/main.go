// CAN DoS and OBD reprogramming: the powertrain attacks behind the
// paper's Section II argument, run on the CAN bus simulator.
//
// Part 1 measures a signal-extinction style denial of service against
// the ECM torque frame: Severe safety impact, trivially feasible with
// physical bus access — yet the ISO/SAE 21434 CAL table caps
// physical-vector goals at CAL2, the exact mismatch the paper
// criticizes.
//
// Part 2 executes an ECM reprogramming through a UDS-style diagnostic
// session with a leaked seed/key secret: the local/OBD attack whose
// feasibility the PSP social tuning promotes from Low to High.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/psp-framework/psp/internal/canbus"
	"github.com/psp-framework/psp/internal/tara"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	if err := dosExperiment(w); err != nil {
		return err
	}
	return flashExperiment(w)
}

func dosExperiment(w io.Writer) error {
	fmt.Fprintln(w, "== Part 1: signal-extinction DoS on the powertrain CAN ==")
	bus := canbus.NewBus()
	torque := canbus.NewPeriodicSender("ECM-torque",
		canbus.Frame{ID: 0x0C0, Data: []byte{0x10, 0x27}}, 2)
	attacker := canbus.NewFlooder("attacker", canbus.Frame{ID: 0x000})
	attacker.Active = false // attack starts later
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

	fmt.Fprintf(w, "torque frame delivery: %.0f%% baseline → %.0f%% under attack\n",
		baseline*100, underAttack*100)

	// The TARA verdict for this scenario under the standard models.
	impact := tara.ImpactSevere // loss of torque control while driving
	cal, err := tara.StandardCALTable().Determine(impact, tara.VectorPhysical)
	if err != nil {
		return err
	}
	feas, err := tara.StandardVectorTable().Rating(tara.VectorPhysical)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "standard TARA: impact=%s, vector=Physical → feasibility=%s, CAL=%s\n",
		impact, feas, cal)
	fmt.Fprintf(w, "→ a %.0f%% outage of a safety-critical signal rates '%s' feasibility and\n",
		(1-underAttack)*100, feas)
	fmt.Fprintln(w, "  caps at CAL2 — the mismatch the PSP framework corrects.")

	// The attack potential-based model already disagrees with G.9.
	potential, err := tara.StandardPotentialWeights().Potential(tara.AttackPotentialInput{
		Time: tara.TimeOneDay, Expertise: tara.ExpertiseProficient,
		Knowledge: tara.KnowledgePublic, Window: tara.WindowEasy,
		Equipment: tara.EquipmentStandard,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "attack potential of the same attack: %d → %s (models disagree)\n\n",
		potential, tara.StandardPotentialThresholds().Rating(potential))
	return nil
}

func flashExperiment(w io.Writer) error {
	fmt.Fprintln(w, "== Part 2: ECM reprogramming via OBD with a leaked secret ==")
	secret := []byte{0xA5, 0x5A} // leaked on the tuning forums
	stock := []byte("STOCK-CAL-v1")
	tuned := []byte("STAGE1-CAL-power+18%")

	bus := canbus.NewBus()
	ecm := canbus.NewECU("ECM", 0x7E0, 0x7E8, secret, stock)
	tool := canbus.NewTester("obd-flasher", 0x7E8, canbus.FlashScript(0x7E0, secret, tuned))
	if err := bus.Attach(ecm, tool); err != nil {
		return err
	}
	slots, err := canbus.RunUntilDone(bus, tool, 1000)
	if err != nil {
		return err
	}
	if tool.Failed() != 0 {
		return fmt.Errorf("flash failed with NRC 0x%02X", tool.Failed())
	}
	fmt.Fprintf(w, "firmware before: %q\n", stock)
	fmt.Fprintf(w, "firmware after:  %q (flashed in %d bus slots)\n", ecm.Firmware, slots)
	fmt.Fprintln(w, "→ with scene-leaked secrets, OBD reprogramming is a routine local attack;")
	fmt.Fprintln(w, "  the PSP-retuned table rates it High instead of G.9's Low.")
	return nil
}
