package sai

import (
	"math"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

func post(id, text string, views, likes int) *social.Post {
	return &social.Post{
		ID: id, Author: "u", Text: text,
		CreatedAt: time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC),
		Region:    social.RegionEurope,
		Metrics:   social.Metrics{Views: views, Likes: likes},
	}
}

func mustScorer(t *testing.T, w Weights) *Scorer {
	t.Helper()
	s, err := NewScorer(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Errorf("default weights invalid: %v", err)
	}
	bad := []Weights{
		{Views: -1, Interactions: 1, Popularity: 1},
		{},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid weights accepted: %+v", i, w)
		}
	}
}

func TestAttractionMonotoneInEngagement(t *testing.T) {
	s := mustScorer(t, Weights{Views: 1, Interactions: 2, Popularity: 10})
	low := s.Attraction(post("a", "neutral spec text", 100, 2))
	high := s.Attraction(post("b", "neutral spec text", 10000, 300))
	if high <= low {
		t.Errorf("attraction not monotone: low %.2f, high %.2f", low, high)
	}
	zero := s.Attraction(post("c", "neutral spec text", 0, 0))
	if zero != 0 {
		t.Errorf("zero-engagement attraction = %.4f, want 0", zero)
	}
}

func TestSentimentGateModulates(t *testing.T) {
	gated := mustScorer(t, DefaultWeights())
	plain := mustScorer(t, Weights{Views: 1, Interactions: 2, Popularity: 10})
	posText := "awesome kit, huge gains, totally recommend"
	negText := "total scam, bricked my unit, waste of money"
	pPos, pNeg := post("p", posText, 1000, 30), post("n", negText, 1000, 30)
	if gated.Attraction(pPos) <= plain.Attraction(pPos) {
		t.Error("positive post not amplified by gate")
	}
	if gated.Attraction(pNeg) >= plain.Attraction(pNeg) {
		t.Error("negative post not dampened by gate")
	}
}

func TestVectorClassifier(t *testing.T) {
	c := NewVectorClassifier()
	tests := []struct {
		text string
		want tara.AttackVector
		ok   bool
	}{
		{"bench flashed it with a bdm probe on my car", tara.VectorPhysical, true},
		{"flashed through the obd port in minutes", tara.VectorLocal, true},
		{"paired over bluetooth from the cab", tara.VectorAdjacent, true},
		{"remote ota push via the telematics account", tara.VectorNetwork, true},
		{"wireless link bridged from ten meters away", tara.VectorAdjacent, true},
		{"just a nice day at the quarry", 0, false},
	}
	for _, tt := range tests {
		got, ok := c.Classify(post("x", tt.text, 1, 0))
		if ok != tt.ok || got != tt.want {
			t.Errorf("Classify(%q) = %v,%v want %v,%v", tt.text, got, ok, tt.want, tt.ok)
		}
	}
}

func TestVectorClassifierTieBreaksToCloserVector(t *testing.T) {
	c := NewVectorClassifier()
	// One physical hit and one network hit: the closer vector wins.
	v, ok := c.Classify(post("x", "bench work after the ota push", 1, 0))
	if !ok || v != tara.VectorPhysical {
		t.Errorf("tie broke to %v, want Physical", v)
	}
}

func TestOwnerClassifier(t *testing.T) {
	c := NewOwnerClassifier()
	tests := []struct {
		text string
		want bool
	}{
		{"huge gains on my excavator, best kit ever", true},
		{"installed the emulator myself, great savings", true},
		{"gone in under a minute, relay kit straight through the door", false},
		{"stolen off the yard overnight, tracker went dark", false},
		{"they cloned the fob and drove it away", false},
		{"completely unrelated text", true}, // tie → insider
	}
	for _, tt := range tests {
		if got := c.IsInsider(post("x", tt.text, 1, 0)); got != tt.want {
			t.Errorf("IsInsider(%q) = %v, want %v", tt.text, got, tt.want)
		}
	}
}

func TestBuilderIndexRankingAndProbability(t *testing.T) {
	b, err := NewBuilder(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := []TopicPosts{
		{Topic: "DPF delete", Tags: []string{"dpfdelete"}, Posts: []*social.Post{
			post("d1", "best #dpfdelete kit, huge gains on my excavator — flashed through the obd port", 5000, 200),
			post("d2", "#dpfdelete done, great savings on my excavator — bench flashed it with a bdm probe", 4000, 150),
		}},
		{Topic: "EGR removal", Tags: []string{"egrremoval"}, Posts: []*social.Post{
			post("e1", "#egrremoval on my tractor, works great — flashed through the obd port", 800, 20),
		}},
		{Topic: "Ghost topic", Tags: []string{"ghost"}, Posts: nil},
	}
	idx, err := b.Build(groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(idx.Entries))
	}
	top, err := idx.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top.Topic != "DPF delete" {
		t.Errorf("top entry = %s, want DPF delete", top.Topic)
	}
	// Probabilities sum to 1 and are ordered with scores.
	var sum float64
	for _, e := range idx.Entries {
		sum += e.Probability
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %.6f", sum)
	}
	if idx.Entries[2].Topic != "Ghost topic" || idx.Entries[2].Score != 0 {
		t.Errorf("empty topic not last with zero score: %+v", idx.Entries[2])
	}
	// All sample posts are insider-phrased.
	for _, e := range idx.Entries[:2] {
		if !e.Insider {
			t.Errorf("entry %s classified outsider", e.Topic)
		}
	}
	if _, err := b.Build(nil); err == nil {
		t.Error("empty groups accepted")
	}
}

func TestVectorSharesSumToOne(t *testing.T) {
	b, err := NewBuilder(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	posts := []*social.Post{
		post("1", "bench flashed it with a bdm probe on my truck #chiptuning", 1000, 30),
		post("2", "flashed through the obd port on my car #chiptuning", 1000, 30),
		post("3", "remote ota push via the telematics account #chiptuning", 500, 10),
		post("4", "no method words here at all", 100, 1),
	}
	shares := b.VectorShares(posts)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("vector shares sum to %.6f, want 1", sum)
	}
	if shares[tara.VectorPhysical] == 0 || shares[tara.VectorLocal] == 0 || shares[tara.VectorNetwork] == 0 {
		t.Errorf("expected non-zero shares: %v", shares)
	}
	if len(b.VectorShares(nil)) != 0 {
		t.Error("empty post set should yield empty shares")
	}
}

func TestRatingBands(t *testing.T) {
	bands := DefaultRatingBands()
	tests := []struct {
		share float64
		want  tara.FeasibilityRating
	}{
		{0.60, tara.FeasibilityHigh},
		{0.45, tara.FeasibilityHigh},
		{0.30, tara.FeasibilityMedium},
		{0.22, tara.FeasibilityMedium},
		{0.10, tara.FeasibilityLow},
		{0.08, tara.FeasibilityLow},
		{0.05, tara.FeasibilityVeryLow},
		{0, tara.FeasibilityVeryLow},
	}
	for _, tt := range tests {
		if got := bands.Rating(tt.share); got != tt.want {
			t.Errorf("Rating(%.2f) = %v, want %v", tt.share, got, tt.want)
		}
	}
	if err := (RatingBands{High: 0.4, Medium: 0.5, Low: 0.1}).Validate(); err == nil {
		t.Error("inverted bands accepted")
	}
}

func TestGenerateVectorTableInversion(t *testing.T) {
	// The ECM-reprogramming shape of Fig. 9-B: physical dominates.
	shares := map[tara.AttackVector]float64{
		tara.VectorPhysical: 0.49,
		tara.VectorLocal:    0.37,
		tara.VectorAdjacent: 0.09,
		tara.VectorNetwork:  0.05,
	}
	tbl, err := GenerateVectorTable("PSP insider (all time)", shares, DefaultRatingBands())
	if err != nil {
		t.Fatal(err)
	}
	expect := map[tara.AttackVector]tara.FeasibilityRating{
		tara.VectorPhysical: tara.FeasibilityHigh,
		tara.VectorLocal:    tara.FeasibilityMedium,
		tara.VectorAdjacent: tara.FeasibilityLow,
		tara.VectorNetwork:  tara.FeasibilityVeryLow,
	}
	for v, want := range expect {
		got, err := tbl.Rating(v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("rating(%s) = %v, want %v", v, got, want)
		}
	}
	// The PSP table must differ from the static G.9 (the paper's point).
	if tbl.Equal(tara.StandardVectorTable()) {
		t.Error("PSP table equals static G.9 despite inverted shares")
	}
	// Invalid share rejected.
	if _, err := GenerateVectorTable("x", map[tara.AttackVector]float64{
		tara.VectorPhysical: 1.5,
	}, DefaultRatingBands()); err == nil {
		t.Error("share > 1 accepted")
	}
}

func TestCorrectiveFactors(t *testing.T) {
	shares := map[tara.AttackVector]float64{
		tara.VectorPhysical: 0.5,
		tara.VectorLocal:    0.25,
		tara.VectorAdjacent: 0.15,
		tara.VectorNetwork:  0.10,
	}
	f := CorrectiveFactors(shares)
	if f[tara.VectorPhysical] != 2.0 {
		t.Errorf("physical factor = %v, want 2.0", f[tara.VectorPhysical])
	}
	if f[tara.VectorLocal] != 1.0 {
		t.Errorf("local factor = %v, want 1.0", f[tara.VectorLocal])
	}
	if f[tara.VectorNetwork] >= 1 {
		t.Errorf("network factor = %v, want < 1", f[tara.VectorNetwork])
	}
}

func TestLearner(t *testing.T) {
	l := NewLearner()
	var posts []*social.Post
	for i := 0; i < 6; i++ {
		posts = append(posts, post(
			string(rune('a'+i)),
			"great kit #dpfdelete #dpfoff on my excavator", 100, 5))
	}
	posts = append(posts,
		post("x1", "#egrremoval #egroff done", 100, 5),
		post("x2", "#dpfdelete #weekendvibes", 100, 5),
	)
	l.Observe(posts)
	learned, err := l.Learn([]string{"dpfdelete", "egrremoval"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tag := range learned {
		if tag == "dpfoff" {
			found = true
		}
		if tag == "weekendvibes" {
			t.Error("low-support noise tag learned")
		}
	}
	if !found {
		t.Errorf("dpfoff not learned: %v", learned)
	}
	// Blocklist suppresses tags.
	l.Blocklist["dpfoff"] = true
	learned2, err := l.Learn([]string{"dpfdelete"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range learned2 {
		if tag == "dpfoff" {
			t.Error("blocklisted tag learned")
		}
	}
	// Attribution maps dpfoff to the DPF group.
	attr := l.Attribute([]string{"dpfoff"}, map[string][]string{
		"DPF delete":  {"dpfdelete"},
		"EGR removal": {"egrremoval"},
	})
	if len(attr["DPF delete"]) != 1 || attr["DPF delete"][0] != "dpfoff" {
		t.Errorf("attribution = %v", attr)
	}
	// Error paths.
	if _, err := l.Learn(nil, 5); err == nil {
		t.Error("empty seeds accepted")
	}
	if _, err := l.Learn([]string{"x"}, 0); err == nil {
		t.Error("maxNew=0 accepted")
	}
}
