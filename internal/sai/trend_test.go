package sai

import (
	"context"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/social"
)

func trendPost(id string, when time.Time, views int) *social.Post {
	return &social.Post{
		ID: id, Author: "u", Text: "plain post with no method words",
		CreatedAt: when, Region: social.RegionEurope,
		Metrics: social.Metrics{Views: views, Likes: views / 50},
	}
}

func mustBuilder(t *testing.T) *Builder {
	t.Helper()
	b, err := NewBuilder(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestComputeTrendRising(t *testing.T) {
	b := mustBuilder(t)
	var posts []*social.Post
	// Quarterly volume doubling across 2022: unmistakably rising.
	for q := 0; q < 4; q++ {
		when := time.Date(2022, time.Month(1+q*3), 15, 0, 0, 0, 0, time.UTC)
		for i := 0; i < (q+1)*(q+1); i++ {
			posts = append(posts, trendPost(
				time.Month(q).String()+string(rune('a'+i)), when, 1000))
		}
	}
	trend, err := TrendOf(posts, b.AnalyzePosts(posts))
	if err != nil {
		t.Fatal(err)
	}
	if trend.Direction != TrendRising {
		t.Errorf("direction = %v (slope %.3f), want rising", trend.Direction, trend.Slope)
	}
	if len(trend.Points) != 4 {
		t.Errorf("points = %d, want 4", len(trend.Points))
	}
	for i := 1; i < len(trend.Points); i++ {
		if !trend.Points[i-1].Quarter.Before(trend.Points[i].Quarter) {
			t.Error("points not chronologically sorted")
		}
	}
}

func TestComputeTrendFallingAndStable(t *testing.T) {
	b := mustBuilder(t)
	var falling []*social.Post
	for q := 0; q < 4; q++ {
		when := time.Date(2022, time.Month(1+q*3), 15, 0, 0, 0, 0, time.UTC)
		for i := 0; i < (4-q)*(4-q); i++ {
			falling = append(falling, trendPost(
				"f"+time.Month(q).String()+string(rune('a'+i)), when, 1000))
		}
	}
	trend, err := TrendOf(falling, b.AnalyzePosts(falling))
	if err != nil {
		t.Fatal(err)
	}
	if trend.Direction != TrendFalling {
		t.Errorf("direction = %v (slope %.3f), want falling", trend.Direction, trend.Slope)
	}

	var stable []*social.Post
	for q := 0; q < 4; q++ {
		when := time.Date(2022, time.Month(1+q*3), 15, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 5; i++ {
			stable = append(stable, trendPost(
				"s"+time.Month(q).String()+string(rune('a'+i)), when, 1000))
		}
	}
	trend, err = TrendOf(stable, b.AnalyzePosts(stable))
	if err != nil {
		t.Fatal(err)
	}
	if trend.Direction != TrendStable {
		t.Errorf("direction = %v (slope %.3f), want stable", trend.Direction, trend.Slope)
	}
}

func TestComputeTrendErrors(t *testing.T) {
	b := mustBuilder(t)
	if _, err := TrendOf(nil, b.AnalyzePosts(nil)); err == nil {
		t.Error("empty posts accepted")
	}
	one := []*social.Post{trendPost("x", time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC), 100)}
	if _, err := TrendOf(one, b.AnalyzePosts(one)); err == nil {
		t.Error("single quarter accepted")
	}
}

func TestQuarterStart(t *testing.T) {
	tests := []struct {
		in   time.Time
		want time.Time
	}{
		{time.Date(2022, 2, 20, 13, 0, 0, 0, time.UTC), time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)},
		{time.Date(2022, 6, 30, 0, 0, 0, 0, time.UTC), time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)},
		{time.Date(2022, 12, 31, 0, 0, 0, 0, time.UTC), time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC)},
	}
	for _, tt := range tests {
		if got := quarterStart(tt.in); !got.Equal(tt.want) {
			t.Errorf("quarterStart(%s) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

// The reference corpus encodes the paper's shift: OBD-method ECM posts
// rise over the corpus lifetime.
func TestCorpusLocalMethodTrendRises(t *testing.T) {
	store, err := social.DefaultStore(31)
	if err != nil {
		t.Fatal(err)
	}
	posts, err := social.SearchAll(testCtx(), store, social.Query{
		AnyTags: []string{"chiptuning", "ecutune", "remap", "stage1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := mustBuilder(t)
	classifier := NewVectorClassifier()
	var localPosts []*social.Post
	for _, p := range posts {
		if v, ok := classifier.Classify(p); ok && v.String() == "Local" {
			localPosts = append(localPosts, p)
		}
	}
	trend, err := TrendOf(localPosts, b.AnalyzePosts(localPosts))
	if err != nil {
		t.Fatal(err)
	}
	if trend.Direction != TrendRising {
		t.Errorf("local-method trend = %v (slope %.3f), want rising", trend.Direction, trend.Slope)
	}
}

func testCtx() context.Context { return context.Background() }
