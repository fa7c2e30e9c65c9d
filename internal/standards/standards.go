// Package standards models the contribution graph of Fig. 1 of the PSP
// paper: the standards ISO/SAE 21434 was developed from, each linked with
// a strong or medium relationship. The graph supports provenance queries
// ("which cybersecurity standards shaped clause X's worldview") used in
// reports and documentation tooling.
package standards

import (
	"fmt"
	"sort"
	"strings"
)

// Strength classifies a contribution edge.
type Strength int

// Relationship strengths, per the figure's legend.
const (
	Medium Strength = iota + 1
	Strong
)

// String returns the strength name.
func (s Strength) String() string {
	switch s {
	case Medium:
		return "Medium"
	case Strong:
		return "Strong"
	}
	return fmt.Sprintf("Strength(%d)", int(s))
}

// Domain classifies what field a contributing standard comes from — the
// paper's point being that many contributors are IT-security standards,
// which biases the TARA models toward enterprise-IT assumptions.
type Domain int

// Contributor domains.
const (
	DomainAutomotive Domain = iota + 1
	DomainITSecurity
	DomainQuality
	DomainSoftware
	DomainFunctionalSafety
)

// String returns the domain name.
func (d Domain) String() string {
	switch d {
	case DomainAutomotive:
		return "Automotive"
	case DomainITSecurity:
		return "IT Security"
	case DomainQuality:
		return "Quality"
	case DomainSoftware:
		return "Software Engineering"
	case DomainFunctionalSafety:
		return "Functional Safety"
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// Contribution is one edge of the graph: a standard contributing to
// ISO/SAE 21434.
type Contribution struct {
	// Standard is the contributor's designation ("ISO/IEC 18045").
	Standard string
	// Strength is the relationship strength.
	Strength Strength
	// Domain is the contributor's field.
	Domain Domain
}

// Graph is the contribution graph around a target standard.
type Graph struct {
	// Target is the standard being contributed to.
	Target        string
	contributions map[string]Contribution
}

// NewGraph returns an empty graph for a target standard.
func NewGraph(target string) *Graph {
	return &Graph{Target: target, contributions: make(map[string]Contribution)}
}

// Add inserts a contribution edge; duplicates are rejected.
func (g *Graph) Add(c Contribution) error {
	if strings.TrimSpace(c.Standard) == "" {
		return fmt.Errorf("standards: contribution with empty standard name")
	}
	if c.Strength != Medium && c.Strength != Strong {
		return fmt.Errorf("standards: %s: invalid strength %d", c.Standard, int(c.Strength))
	}
	if _, dup := g.contributions[c.Standard]; dup {
		return fmt.Errorf("standards: duplicate contribution %s", c.Standard)
	}
	g.contributions[c.Standard] = c
	return nil
}

// Len returns the number of contributions.
func (g *Graph) Len() int { return len(g.contributions) }

// All returns every contribution sorted by (descending strength, name).
func (g *Graph) All() []Contribution {
	out := make([]Contribution, 0, len(g.contributions))
	for _, c := range g.contributions {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		return out[i].Standard < out[j].Standard
	})
	return out
}

// ITShare returns the fraction of contributors from the IT-security
// domain — the quantitative form of the paper's observation that
// "many of the standards used in its creation are not solely related to
// the automotive industry, particularly those related to cybersecurity".
func (g *Graph) ITShare() float64 {
	if len(g.contributions) == 0 {
		return 0
	}
	n := 0
	for _, c := range g.contributions {
		if c.Domain == DomainITSecurity {
			n++
		}
	}
	return float64(n) / float64(len(g.contributions))
}

// ISO21434Graph returns the Fig. 1 graph: the standards contributing to
// ISO/SAE 21434:2021 with their relationship strengths.
func ISO21434Graph() (*Graph, error) {
	g := NewGraph("ISO/SAE 21434:2021")
	contributions := []Contribution{
		// Strong relationships.
		{Standard: "SAE J3061", Strength: Strong, Domain: DomainAutomotive},
		{Standard: "ISO 26262:2018", Strength: Strong, Domain: DomainFunctionalSafety},
		{Standard: "ISO/IEC 18045", Strength: Strong, Domain: DomainITSecurity},
		{Standard: "ISO/IEC 27000:2018", Strength: Strong, Domain: DomainITSecurity},
		{Standard: "IATF 16949", Strength: Strong, Domain: DomainQuality},
		{Standard: "ISO 9001", Strength: Strong, Domain: DomainQuality},
		{Standard: "ISO 10007", Strength: Strong, Domain: DomainQuality},
		{Standard: "ISO/IEC/IEEE 15288", Strength: Strong, Domain: DomainSoftware},
		{Standard: "MISRA C 2012", Strength: Strong, Domain: DomainSoftware},
		{Standard: "ISO/IEC 27001", Strength: Strong, Domain: DomainITSecurity},
		{Standard: "ASPICE", Strength: Strong, Domain: DomainAutomotive},
		{Standard: "SEI CERT C", Strength: Strong, Domain: DomainSoftware},
		// Medium relationships.
		{Standard: "ISO 9000:2015", Strength: Medium, Domain: DomainQuality},
		{Standard: "ISO/TR 4804", Strength: Medium, Domain: DomainAutomotive},
		{Standard: "ISO/IEC/IEEE 12207", Strength: Medium, Domain: DomainSoftware},
		{Standard: "ISO 29147", Strength: Medium, Domain: DomainITSecurity},
		{Standard: "ISO/IEC/IEEE 26511", Strength: Medium, Domain: DomainSoftware},
		{Standard: "IEC 31010", Strength: Medium, Domain: DomainQuality},
		{Standard: "ISO/IEC 33001", Strength: Medium, Domain: DomainSoftware},
		{Standard: "IEC 61508-7", Strength: Medium, Domain: DomainFunctionalSafety},
		{Standard: "IEC 62443", Strength: Medium, Domain: DomainITSecurity},
	}
	for _, c := range contributions {
		if err := g.Add(c); err != nil {
			return nil, err
		}
	}
	return g, nil
}
