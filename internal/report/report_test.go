package report

import (
	"strings"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/finance"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/tara"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Demo", "Col A", "Column B")
	tbl.AddRow("x", "yyyy")
	tbl.AddRow("longer cell") // short row padded
	out := tbl.Render()
	if !strings.Contains(out, "Demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "| Col A") || !strings.Contains(out, "| x") {
		t.Errorf("table content missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + top sep + header + sep + 2 rows + bottom sep = 7 lines.
	if len(lines) != 7 {
		t.Errorf("rendered %d lines, want 7:\n%s", len(lines), out)
	}
	// All body lines equal width.
	w := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != w {
			t.Errorf("ragged table:\n%s", out)
			break
		}
	}
}

func TestBarChart(t *testing.T) {
	out, err := BarChart("Chart", []string{"a", "bb"}, []float64{10, 5}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "####") {
		t.Errorf("bars missing:\n%s", out)
	}
	// The larger value gets the longer bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Errorf("bar scaling wrong:\n%s", out)
	}
	if _, err := BarChart("x", []string{"a"}, []float64{1, 2}, 20); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := BarChart("x", nil, nil, 20); err == nil {
		t.Error("empty chart accepted")
	}
	if _, err := BarChart("x", []string{"a"}, []float64{-1}, 20); err == nil {
		t.Error("negative value accepted")
	}
}

func TestVectorTableRender(t *testing.T) {
	out := VectorTable(tara.StandardVectorTable())
	for _, want := range []string{"Network", "High", "Physical", "Very Low"} {
		if !strings.Contains(out, want) {
			t.Errorf("G.9 rendering misses %q:\n%s", want, out)
		}
	}
	// Ranked order: Network row above Physical row.
	if strings.Index(out, "Network") > strings.Index(out, "Physical") {
		t.Errorf("ranking order wrong:\n%s", out)
	}
}

func TestCALTableRender(t *testing.T) {
	out := CALTable(tara.StandardCALTable())
	for _, want := range []string{"Severe", "CAL4", "CAL2", "Negligible"} {
		if !strings.Contains(out, want) {
			t.Errorf("CAL rendering misses %q:\n%s", want, out)
		}
	}
}

func TestPotentialWeightsRender(t *testing.T) {
	out := PotentialWeights(tara.StandardPotentialWeights())
	for _, want := range []string{"Elapsed Time", "Multiple experts", "19", "11"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 3 rendering misses %q:\n%s", want, out)
		}
	}
}

func TestSAIRenderers(t *testing.T) {
	idx := &sai.Index{Entries: []sai.Entry{
		{Topic: "DPF delete", Score: 100, Probability: 0.7, Insider: true, Posts: 42},
		{Topic: "Immobilizer bypass", Score: 40, Probability: 0.3, Insider: false, Posts: 9},
	}}
	chart, err := SAIChart(idx, "Fig. 12")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "DPF delete") || !strings.Contains(chart, "outsider") {
		t.Errorf("SAI chart incomplete:\n%s", chart)
	}
	tbl := SAITable(idx, "SAI")
	if !strings.Contains(tbl, "0.700") || !strings.Contains(tbl, "insider") {
		t.Errorf("SAI table incomplete:\n%s", tbl)
	}
}

func TestBEPDiagramRender(t *testing.T) {
	curve, err := finance.ComputeBEPCurve(
		finance.FromUnits(145286, finance.EUR), 3,
		finance.FromUnits(360, finance.EUR), finance.FromUnits(50, finance.EUR),
		2812, 41)
	if err != nil {
		t.Fatal(err)
	}
	out, err := BEPDiagram(curve, "Fig. 11")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "break-even point: 1406 units") {
		t.Errorf("BEP summary missing:\n%s", out)
	}
	if !strings.Contains(out, "R") || !strings.Contains(out, "C") {
		t.Errorf("series marks missing:\n%s", out)
	}
}

func TestCrossoverDiagramValidation(t *testing.T) {
	if _, err := CrossoverDiagram("x", nil, LineSeries{}, LineSeries{}, 10); err == nil {
		t.Error("empty diagram accepted")
	}
	if _, err := CrossoverDiagram("x", []int{1}, LineSeries{Values: []float64{1, 2}},
		LineSeries{Values: []float64{1}}, 10); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestTrendChartRender(t *testing.T) {
	trend := &sai.Trend{
		Points: []sai.TrendPoint{
			{Quarter: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC), Attraction: 100, Posts: 10},
			{Quarter: time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC), Attraction: 150, Posts: 15},
		},
		Slope:     0.33,
		Direction: sai.TrendRising,
	}
	out, err := TrendChart(trend, "Trend")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2022-Q1", "2022-Q2", "trend: rising", "33.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("trend chart misses %q:\n%s", want, out)
		}
	}
}
