package standards

import "testing"

func mustGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := ISO21434Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestISO21434GraphShape(t *testing.T) {
	g := mustGraph(t)
	if g.Target != "ISO/SAE 21434:2021" {
		t.Errorf("Target = %q", g.Target)
	}
	if g.Len() != 21 {
		t.Errorf("Len() = %d, want 21 contributors (Fig. 1)", g.Len())
	}
	strong, medium := 0, 0
	for _, c := range g.All() {
		switch c.Strength {
		case Strong:
			strong++
		case Medium:
			medium++
		}
	}
	if strong != 12 || medium != 9 {
		t.Errorf("strong/medium = %d/%d, want 12/9", strong, medium)
	}
	if strong+medium != g.Len() {
		t.Error("strength partition incomplete")
	}
}

func TestITSecurityInfluence(t *testing.T) {
	// The paper's premise: a meaningful share of 21434's ancestry is
	// enterprise IT security, explaining the remote-attack bias.
	g := mustGraph(t)
	var it []Contribution
	for _, c := range g.All() {
		if c.Domain == DomainITSecurity {
			it = append(it, c)
		}
	}
	if len(it) < 4 {
		t.Errorf("IT-security contributors = %d, want ≥4", len(it))
	}
	share := g.ITShare()
	if share <= 0.15 || share >= 0.5 {
		t.Errorf("ITShare() = %.3f, want a meaningful minority share", share)
	}
	found := false
	for _, c := range it {
		if c.Standard == "ISO/IEC 18045" && c.Strength == Strong {
			found = true
		}
	}
	if !found {
		t.Error("ISO/IEC 18045 (source of the attack-potential model) must be a strong IT-security contributor")
	}
}

func TestAllSortedByStrengthThenName(t *testing.T) {
	g := mustGraph(t)
	all := g.All()
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1], all[i]
		if prev.Strength < cur.Strength {
			t.Fatalf("All() not sorted by strength at %d: %v before %v", i, prev, cur)
		}
		if prev.Strength == cur.Strength && prev.Standard > cur.Standard {
			t.Fatalf("All() not name-sorted within strength at %d", i)
		}
	}
}

func TestAddValidation(t *testing.T) {
	g := NewGraph("X")
	if err := g.Add(Contribution{Standard: "", Strength: Strong, Domain: DomainQuality}); err == nil {
		t.Error("empty standard accepted")
	}
	if err := g.Add(Contribution{Standard: "A", Strength: 0, Domain: DomainQuality}); err == nil {
		t.Error("invalid strength accepted")
	}
	if err := g.Add(Contribution{Standard: "A", Strength: Strong, Domain: DomainQuality}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(Contribution{Standard: "A", Strength: Medium, Domain: DomainQuality}); err == nil {
		t.Error("duplicate accepted")
	}
	if g.ITShare() != 0 {
		t.Error("ITShare without IT contributors should be 0")
	}
	if NewGraph("Y").ITShare() != 0 {
		t.Error("ITShare on empty graph should be 0")
	}
}

func TestEnumStrings(t *testing.T) {
	if Strong.String() != "Strong" || Medium.String() != "Medium" {
		t.Error("strength strings wrong")
	}
	if DomainITSecurity.String() != "IT Security" {
		t.Error("domain string wrong")
	}
	if Strength(9).String() == "" || Domain(9).String() == "" {
		t.Error("fallback strings empty")
	}
}
