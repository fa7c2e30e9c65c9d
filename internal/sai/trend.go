package sai

import (
	"fmt"
	"sort"
	"time"

	"github.com/psp-framework/psp/internal/social"
)

// The paper lists "historical trend" among the customizable search
// parameters and builds its Fig. 9 argument on a trend inversion. This
// file quantifies trends: attraction is bucketed per quarter and a
// least-squares slope classifies the topic as rising, stable or falling.

// TrendDirection classifies a fitted slope.
type TrendDirection int

// Trend directions.
const (
	TrendFalling TrendDirection = iota + 1
	TrendStable
	TrendRising
)

// String returns the direction name.
func (d TrendDirection) String() string {
	switch d {
	case TrendFalling:
		return "falling"
	case TrendStable:
		return "stable"
	case TrendRising:
		return "rising"
	}
	return "unknown"
}

// TrendPoint is one quarterly sample.
type TrendPoint struct {
	// Quarter is the first day of the quarter (UTC).
	Quarter time.Time
	// Attraction is the summed attraction of the quarter's posts.
	Attraction float64
	// Posts is the quarter's post count.
	Posts int
}

// Trend is a fitted topic trend.
type Trend struct {
	// Points are the quarterly samples, ascending.
	Points []TrendPoint
	// Slope is the least-squares slope of attraction per quarter,
	// normalized by the mean attraction (a relative growth rate).
	Slope float64
	// Direction classifies Slope against the stability band.
	Direction TrendDirection
}

// stabilityBand is the |slope| below which a trend counts as stable
// (±2% of mean attraction per quarter, ≈ ±8% per year).
const stabilityBand = 0.02

// ComputeTrend buckets posts per quarter and fits the attraction series.
// At least two non-empty quarters are required.
func (b *Builder) ComputeTrend(posts []*social.Post) (*Trend, error) {
	return TrendOf(posts, b.AnalyzePosts(posts))
}

// TrendOf is ComputeTrend over already analyzed posts: features[i]
// describes posts[i].
func TrendOf(posts []*social.Post, features []PostFeatures) (*Trend, error) {
	if len(posts) == 0 {
		return nil, fmt.Errorf("sai: no posts to compute a trend from")
	}
	buckets := make(map[time.Time]*TrendPoint)
	for i, p := range posts {
		q := quarterStart(p.CreatedAt)
		tp, ok := buckets[q]
		if !ok {
			tp = &TrendPoint{Quarter: q}
			buckets[q] = tp
		}
		tp.Attraction += features[i].Attraction
		tp.Posts++
	}
	if len(buckets) < 2 {
		return nil, fmt.Errorf("sai: need at least two quarters of data, have %d", len(buckets))
	}
	trend := &Trend{Points: make([]TrendPoint, 0, len(buckets))}
	for _, tp := range buckets {
		trend.Points = append(trend.Points, *tp)
	}
	sort.Slice(trend.Points, func(i, j int) bool {
		return trend.Points[i].Quarter.Before(trend.Points[j].Quarter)
	})

	// Least-squares slope over (index, attraction).
	n := float64(len(trend.Points))
	var sumX, sumY, sumXY, sumXX float64
	for i, tp := range trend.Points {
		x := float64(i)
		sumX += x
		sumY += tp.Attraction
		sumXY += x * tp.Attraction
		sumXX += x * x
	}
	denom := n*sumXX - sumX*sumX
	if denom == 0 {
		return nil, fmt.Errorf("sai: degenerate trend series")
	}
	slope := (n*sumXY - sumX*sumY) / denom
	mean := sumY / n
	if mean > 0 {
		trend.Slope = slope / mean
	}
	switch {
	case trend.Slope > stabilityBand:
		trend.Direction = TrendRising
	case trend.Slope < -stabilityBand:
		trend.Direction = TrendFalling
	default:
		trend.Direction = TrendStable
	}
	return trend, nil
}

// quarterStart truncates a time to the first day of its quarter (UTC).
func quarterStart(t time.Time) time.Time {
	t = t.UTC()
	month := time.Month((int(t.Month())-1)/3*3 + 1)
	return time.Date(t.Year(), month, 1, 0, 0, 0, 0, time.UTC)
}
