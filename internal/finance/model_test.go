package finance

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/psp-framework/psp/internal/tara"
)

// The excavator case study constants of Equations 6 and 7.
var (
	ppia360 = FromUnits(360, EUR)
	vcu50   = FromUnits(50, EUR)
)

func TestPAEExcavatorCaseStudy(t *testing.T) {
	// Equation 6 input: MS = 28,120, PEA = 5% → PAE = 1,406.
	pae, err := PAE(28120, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if pae != 1406 {
		t.Errorf("PAE = %d, want 1406", pae)
	}
}

func TestPAEValidation(t *testing.T) {
	if _, err := PAE(-1, 0.5); err == nil {
		t.Error("negative units accepted")
	}
	if _, err := PAE(10, -0.1); err == nil {
		t.Error("negative PEA accepted")
	}
	if _, err := PAE(10, 1.1); err == nil {
		t.Error("PEA > 1 accepted")
	}
	if pae, _ := PAE(0, 0.5); pae != 0 {
		t.Errorf("PAE(0) = %d", pae)
	}
}

func TestMarketValueEquation6(t *testing.T) {
	// MV = PAE · PPIA = 1,406 · 360 EUR = 506,160 EUR.
	mv, err := MarketValue(1406, ppia360)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Units() != 506160 {
		t.Errorf("MV = %s, want 506,160.00 EUR (Eq. 6)", mv)
	}
	if _, err := MarketValue(-1, ppia360); err == nil {
		t.Error("negative PAE accepted")
	}
	if _, err := MarketValue(10, Money{}); err == nil {
		t.Error("zero PPIA accepted")
	}
}

func TestInverseFixedCostEquation7(t *testing.T) {
	// FC = BEP·(PPIA−VCU)/n = 1,406·310/3 ≈ 145,286.67 EUR.
	fc, err := InverseFixedCost(1406, ppia360, vcu50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Cents != 14528667 {
		t.Errorf("FC = %s (%d cents), want ≈145,286.67 EUR (Eq. 7)", fc, fc.Cents)
	}
	if _, err := InverseFixedCost(-1, ppia360, vcu50, 3); err == nil {
		t.Error("negative BEP accepted")
	}
	if _, err := InverseFixedCost(1406, ppia360, vcu50, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := InverseFixedCost(1406, vcu50, ppia360, 3); !errors.Is(err, ErrNoMargin) {
		t.Errorf("inverted margin error = %v, want ErrNoMargin", err)
	}
}

func TestFixedCostEquation4(t *testing.T) {
	// A work-year of black-hat R&D at 60 EUR/h plus 20,480 EUR of
	// depreciated lab equipment.
	fc, err := FixedCost(2080, FromUnits(60, EUR), FromUnits(20480, EUR))
	if err != nil {
		t.Fatal(err)
	}
	if fc.Units() != 2080*60+20480 {
		t.Errorf("FC = %s, want 145,280.00 EUR", fc)
	}
	if _, err := FixedCost(-1, FromUnits(60, EUR), Money{}); err == nil {
		t.Error("negative FTEH accepted")
	}
	if _, err := FixedCost(10, FromUnits(-1, EUR), Money{}); err == nil {
		t.Error("negative hourly cost accepted")
	}
}

func TestBreakEvenEquation3(t *testing.T) {
	// With the paper's FC ≈ 145,286 EUR, n = 3 and margin = 310 EUR the
	// break-even volume must return 1,406 (the PAE it was derived from).
	fc := FromUnits(145286, EUR)
	bep, err := BreakEven(fc, 3, ppia360, vcu50)
	if err != nil {
		t.Fatal(err)
	}
	if bep != 1406 {
		t.Errorf("BEP = %d, want 1406 (round trip of Eq. 3/5)", bep)
	}
	// Rounding up: one cent above the exact multiple adds a unit.
	bep2, err := BreakEven(FromCents(31001, EUR), 1, ppia360, vcu50)
	if err != nil {
		t.Fatal(err)
	}
	if bep2 != 2 {
		t.Errorf("BEP rounding = %d, want 2", bep2)
	}
	if _, err := BreakEven(fc, 0, ppia360, vcu50); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BreakEven(fc, 3, vcu50, ppia360); !errors.Is(err, ErrNoMargin) {
		t.Errorf("no-margin error = %v", err)
	}
	if _, err := BreakEven(FromUnits(-1, EUR), 3, ppia360, vcu50); err == nil {
		t.Error("negative FC accepted")
	}
}

func TestBEPCurveShape(t *testing.T) {
	fc := FromUnits(145286, EUR)
	curve, err := ComputeBEPCurve(fc, 3, ppia360, vcu50, 2800, 57)
	if err != nil {
		t.Fatal(err)
	}
	if curve.BreakEvenUnits != 1406 {
		t.Errorf("curve BEP = %d, want 1406", curve.BreakEvenUnits)
	}
	if len(curve.Points) != 57 {
		t.Fatalf("curve has %d points, want 57", len(curve.Points))
	}
	// Zones must transition loss → profit at the break-even point,
	// matching the red/blue areas of Fig. 11.
	sawLoss, sawProfit := false, false
	for _, p := range curve.Points {
		switch {
		case p.Units < curve.BreakEvenUnits:
			if p.Zone != ZoneLoss {
				t.Errorf("units %d: zone %v, want loss", p.Units, p.Zone)
			}
			sawLoss = true
		case p.Units > curve.BreakEvenUnits:
			if p.Zone != ZoneProfit {
				t.Errorf("units %d: zone %v, want profit", p.Units, p.Zone)
			}
			sawProfit = true
		}
	}
	if !sawLoss || !sawProfit {
		t.Error("curve does not cross the break-even point")
	}
	// First point: zero revenue, cost = FC.
	if curve.Points[0].Revenue.Cents != 0 || curve.Points[0].Cost.Cents != fc.Cents {
		t.Errorf("curve origin wrong: %+v", curve.Points[0])
	}
	if _, err := ComputeBEPCurve(fc, 3, ppia360, vcu50, 2800, 1); err == nil {
		t.Error("steps=1 accepted")
	}
	if _, err := ComputeBEPCurve(fc, 3, ppia360, vcu50, 0, 10); err == nil {
		t.Error("maxUnits=0 accepted")
	}
}

func TestClassifyVolume(t *testing.T) {
	// FC 100 EUR, margin 1 EUR per unit: the BEP is 100 units, and the
	// samples at 0, 50, 100, 150 and 200 units land on both sides of it
	// and on it exactly.
	curve, err := ComputeBEPCurve(FromCents(10000, EUR), 1, FromCents(200, EUR), FromCents(100, EUR), 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []Zone{ZoneLoss, ZoneLoss, ZoneBreakEven, ZoneProfit, ZoneProfit}
	for i, p := range curve.Points {
		if p.Zone != want[i] {
			t.Errorf("units %d: zone %v, want %v", p.Units, p.Zone, want[i])
		}
	}
	if ZoneLoss.String() != "loss" || ZoneProfit.String() != "profit" || ZoneBreakEven.String() != "break-even" {
		t.Error("zone strings wrong")
	}
}

func TestFinancialFeasibilityRating(t *testing.T) {
	th := DefaultThresholds()
	tests := []struct {
		name string
		in   FeasibilityInput
		want tara.FeasibilityRating
	}{
		{"demand far above break-even", FeasibilityInput{PAE: 10000, BEP: 1000}, tara.FeasibilityHigh},
		{"profitable", FeasibilityInput{PAE: 1406, BEP: 1406}, tara.FeasibilityMedium},
		{"marginal", FeasibilityInput{PAE: 800, BEP: 1406}, tara.FeasibilityLow},
		{"unprofitable", FeasibilityInput{PAE: 100, BEP: 1406}, tara.FeasibilityVeryLow},
		{"zero break-even", FeasibilityInput{PAE: 1, BEP: 0}, tara.FeasibilityHigh},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Rate(tt.in, th)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Rate(%+v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
	if _, err := Rate(FeasibilityInput{PAE: -1, BEP: 1}, th); err == nil {
		t.Error("negative PAE accepted")
	}
	if _, err := Rate(FeasibilityInput{PAE: 1, BEP: 1}, Thresholds{}); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestMarketKindString(t *testing.T) {
	if Monopolistic.String() != "monopolistic" || NonMonopolistic.String() != "non-monopolistic" {
		t.Error("market kind strings wrong")
	}
}

// Property: BreakEven and InverseFixedCost are mutually consistent — for
// any positive margin and competitor count, recomputing the break-even
// volume from the inverse fixed cost returns the original BEP (up to the
// +1 unit introduced by cent rounding).
func TestBEPInverseRoundTripProperty(t *testing.T) {
	f := func(bepRaw uint16, marginRaw uint16, nRaw uint8) bool {
		bep := int(bepRaw)%10000 + 1
		margin := int64(marginRaw)%100000 + 1 // cents
		n := int(nRaw)%5 + 1
		ppia := FromCents(margin+5000, EUR)
		vcu := FromCents(5000, EUR)
		fc, err := InverseFixedCost(bep, ppia, vcu, n)
		if err != nil {
			return false
		}
		back, err := BreakEven(fc, n, ppia, vcu)
		if err != nil {
			return false
		}
		return back == bep || back == bep+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
