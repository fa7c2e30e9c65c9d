package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/psp-framework/psp/internal/tara"
)

func TestRunAllExperiments(t *testing.T) {
	var buf strings.Builder
	if err := runExperiments(&buf, "all", 42); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every experiment banner appears.
	for _, id := range experimentOrder {
		if !strings.Contains(out, strings.ToUpper(id)+" —") {
			t.Errorf("output misses experiment %s", id)
		}
	}
	// The headline numbers of the paper.
	for _, marker := range []string{
		"506,160.00 EUR",                     // Eq. 6
		"145,286.67 EUR",                     // Eq. 7
		"break-even point: 1406",             // Fig. 11
		"DPF delete",                         // Fig. 12 top entry
		"TARA reprocessing events: 7",        // Fig. 2 (6 phases + 1 field event)
		"ceiling for physical attacks: CAL2", // Fig. 6
		"0% under signal-extinction DoS",     // supplementary DoS run
		"defence on : top entry DPF delete",  // poisoning defence
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("output misses marker %q", marker)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden outputs under testdata/")

// TestRunAllExperimentsGolden pins the whole reproduction byte for byte:
// every figure, equation and table at seed 42. A change that moves a
// figure on purpose rewrites the golden with -update and says which
// figure moved and why.
func TestRunAllExperimentsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperiments(&buf, "all", 42); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all-seed42.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
			}
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf strings.Builder
	if err := runExperiments(&buf, "fig5", 42); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), tara.StandardVectorTable().Name) {
		t.Errorf("fig5 output wrong:\n%s", buf.String())
	}
}

// TestFig7LearnedKeywordsSorted: Fig. 7 lists the auto-learned keyword
// groups in topic order, so its output is the same on every run.
func TestFig7LearnedKeywordsSorted(t *testing.T) {
	var buf strings.Builder
	if err := runExperiments(&buf, "fig7", 42); err != nil {
		t.Fatal(err)
	}
	_, learned, ok := strings.Cut(buf.String(), "auto-learned keywords (block 5):\n")
	if !ok {
		t.Fatalf("fig7 output has no learned keywords:\n%s", buf.String())
	}
	var topics []string
	for _, line := range strings.Split(learned, "\n") {
		topic, _, ok := strings.Cut(strings.TrimPrefix(line, "  "), ": ")
		if !ok || !strings.HasPrefix(line, "  ") {
			break
		}
		topics = append(topics, topic)
	}
	if len(topics) != 7 || !slices.IsSorted(topics) {
		t.Fatalf("learned keyword topics %q, want 7 in sorted order", topics)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	if err := runExperiments(&buf, "fig99", 42); err == nil {
		t.Error("unknown experiment accepted")
	}
}
