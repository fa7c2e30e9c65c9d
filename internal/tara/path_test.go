package tara

import "testing"

func validPath() *AttackPath {
	return &AttackPath{
		ID:       "AP-01",
		ThreatID: "TS-01",
		Steps: []AttackStep{
			{Description: "access cabin OBD port", Vector: VectorLocal},
			{Description: "open ECU housing and connect to bench harness", Vector: VectorPhysical},
			{Description: "flash modified calibration", Vector: VectorPhysical},
		},
	}
}

func TestAttackPathValidate(t *testing.T) {
	if err := validPath().Validate(); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*AttackPath)
	}{
		{"empty ID", func(p *AttackPath) { p.ID = " " }},
		{"missing threat", func(p *AttackPath) { p.ThreatID = "" }},
		{"no steps", func(p *AttackPath) { p.Steps = nil }},
		{"invalid vector", func(p *AttackPath) { p.Steps[0].Vector = 0 }},
		{"invalid potential", func(p *AttackPath) {
			p.Steps[0].Potential = &AttackPotentialInput{}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validPath()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("Validate() succeeded, want error")
			}
		})
	}
}

func TestDominantVector(t *testing.T) {
	tests := []struct {
		name    string
		vectors []AttackVector
		want    AttackVector
	}{
		{"physical dominates", []AttackVector{VectorNetwork, VectorPhysical, VectorLocal}, VectorPhysical},
		{"local dominates remote", []AttackVector{VectorNetwork, VectorAdjacent, VectorLocal}, VectorLocal},
		{"single network step", []AttackVector{VectorNetwork}, VectorNetwork},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := &AttackPath{ID: "AP", ThreatID: "TS"}
			for _, v := range tt.vectors {
				p.Steps = append(p.Steps, AttackStep{Vector: v})
			}
			if got := p.DominantVector(); got != tt.want {
				t.Errorf("DominantVector() = %s, want %s", got, tt.want)
			}
		})
	}
}

func TestRateByVectorUsesDominantStep(t *testing.T) {
	// A path that ends in a physical step rates Very Low under G.9 even
	// if it starts from the network — the tightest access requirement
	// gates the attack.
	p := &AttackPath{
		ID:       "AP-02",
		ThreatID: "TS-01",
		Steps: []AttackStep{
			{Description: "compromise telematics backend", Vector: VectorNetwork},
			{Description: "replace ECU hardware", Vector: VectorPhysical},
		},
	}
	got, err := p.RateByVector(StandardVectorTable())
	if err != nil {
		t.Fatal(err)
	}
	if got != FeasibilityVeryLow {
		t.Errorf("RateByVector() = %v, want Very Low", got)
	}
}

func TestRateByPotentialUsesHardestStep(t *testing.T) {
	easy := &AttackPotentialInput{
		Time: TimeOneDay, Expertise: ExpertiseLayman, Knowledge: KnowledgePublic,
		Window: WindowUnlimited, Equipment: EquipmentStandard,
	}
	hard := &AttackPotentialInput{
		Time: TimeBeyondSixMonths, Expertise: ExpertiseMultipleExperts,
		Knowledge: KnowledgeStrictlyConfidential, Window: WindowDifficult,
		Equipment: EquipmentMultipleBespoke,
	}
	p := &AttackPath{
		ID:       "AP-03",
		ThreatID: "TS-01",
		Steps: []AttackStep{
			{Description: "easy entry", Vector: VectorLocal, Potential: easy},
			{Description: "hard exploitation", Vector: VectorPhysical, Potential: hard},
		},
	}
	got, err := p.RateByPotential(StandardPotentialWeights(), StandardPotentialThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if got != FeasibilityVeryLow {
		t.Errorf("RateByPotential() = %v, want Very Low (hardest step gates)", got)
	}
}

func TestRateByPotentialRequiresProfile(t *testing.T) {
	p := validPath() // no step has a potential profile
	if _, err := p.RateByPotential(StandardPotentialWeights(), StandardPotentialThresholds()); err == nil {
		t.Error("RateByPotential without profiles succeeded, want error")
	}
}

// TestCombineFeasibility: a threat realized by several alternative
// paths is as feasible as its easiest path (the maximum rating), and
// that path's dominant vector drives the CAL.
func TestCombineFeasibility(t *testing.T) {
	a := ecmAnalysis() // TS-01 already has a bench-flash path: Very Low
	a.AddPath(&AttackPath{ID: "AP-02", ThreatID: "TS-01", Steps: []AttackStep{
		{Description: "inject calibration frames through the gateway", Vector: VectorAdjacent},
	}})
	a.AddPath(&AttackPath{ID: "AP-03", ThreatID: "TS-01", Steps: []AttackStep{
		{Description: "flash through the cabin OBD port", Vector: VectorLocal},
	}})
	for _, r := range mustRun(t, a) {
		if r.Threat.ID != "TS-01" {
			continue
		}
		if r.Feasibility != FeasibilityMedium || r.DominantVector != VectorAdjacent {
			t.Errorf("TS-01 rated %v via %v, want Medium via Adjacent (easiest path wins)",
				r.Feasibility, r.DominantVector)
		}
		return
	}
	t.Fatal("TS-01 not rated")
}
