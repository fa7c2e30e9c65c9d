package finance

import "fmt"

// Zone classifies a unit volume against the break-even point (the blue
// and red areas of Fig. 11).
type Zone int

// Profitability zones.
const (
	// ZoneLoss is the red area: revenue below cost.
	ZoneLoss Zone = iota + 1
	// ZoneBreakEven is the crossing point itself.
	ZoneBreakEven
	// ZoneProfit is the blue area: revenue above cost.
	ZoneProfit
)

// String returns the zone name.
func (z Zone) String() string {
	switch z {
	case ZoneLoss:
		return "loss"
	case ZoneBreakEven:
		return "break-even"
	case ZoneProfit:
		return "profit"
	}
	return fmt.Sprintf("Zone(%d)", int(z))
}

// CurvePoint is one sample of the break-even diagram.
type CurvePoint struct {
	// Units is the sales volume.
	Units int
	// Revenue is Units × PPIA / n (the per-attacker revenue of Eq. 3).
	Revenue Money
	// Cost is FC + Units × VCU / n.
	Cost Money
	// Zone classifies the point.
	Zone Zone
}

// BEPCurve is the sampled break-even diagram of Fig. 11.
type BEPCurve struct {
	// BreakEvenUnits is the crossing volume (Equation 3).
	BreakEvenUnits int
	// Points are the samples, ascending by Units.
	Points []CurvePoint
}

// ComputeBEPCurve samples the revenue and cost lines from 0 to maxUnits
// in the given number of steps (≥ 2), marking each point's zone. The
// per-attacker framing follows the paper: revenue per unit is divided by
// the n competing attackers, equivalently FC is multiplied by n in
// Equation 3.
func ComputeBEPCurve(fc Money, n int, ppia, vcu Money, maxUnits, steps int) (*BEPCurve, error) {
	if steps < 2 {
		return nil, fmt.Errorf("finance: need at least 2 curve steps, got %d", steps)
	}
	if maxUnits < 1 {
		return nil, fmt.Errorf("finance: maxUnits %d < 1", maxUnits)
	}
	bep, err := BreakEven(fc, n, ppia, vcu)
	if err != nil {
		return nil, err
	}
	curve := &BEPCurve{BreakEvenUnits: bep}
	for i := 0; i < steps; i++ {
		units := i * maxUnits / (steps - 1)
		revenue, err := ppia.MulInt(int64(units)).DivInt(int64(n))
		if err != nil {
			return nil, err
		}
		variable, err := vcu.MulInt(int64(units)).DivInt(int64(n))
		if err != nil {
			return nil, err
		}
		cost, err := fc.Add(variable)
		if err != nil {
			return nil, err
		}
		cmp, err := revenue.Cmp(cost)
		if err != nil {
			return nil, err
		}
		zone := ZoneBreakEven
		switch {
		case cmp < 0:
			zone = ZoneLoss
		case cmp > 0:
			zone = ZoneProfit
		}
		curve.Points = append(curve.Points, CurvePoint{
			Units: units, Revenue: revenue, Cost: cost, Zone: zone,
		})
	}
	return curve, nil
}
