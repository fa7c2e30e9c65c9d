package nlp

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKMeans1DThreePriceBands(t *testing.T) {
	// Marketplace shape: budget emulators (~150), mainstream defeat
	// devices (~360), professional installs (~800).
	var values []float64
	for i := 0; i < 10; i++ {
		values = append(values, 140+float64(i)*2) // 140..158
	}
	for i := 0; i < 20; i++ {
		values = append(values, 350+float64(i)) // 350..369
	}
	for i := 0; i < 5; i++ {
		values = append(values, 790+float64(i)*4) // 790..806
	}
	clusters, err := KMeans1D(values, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(clusters))
	}
	if clusters[0].Center > 200 || clusters[1].Center < 300 || clusters[1].Center > 400 || clusters[2].Center < 700 {
		t.Errorf("cluster centers off: %.1f %.1f %.1f",
			clusters[0].Center, clusters[1].Center, clusters[2].Center)
	}
	dom, err := DominantCluster(clusters)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Size() != 20 {
		t.Errorf("dominant cluster size = %d, want 20", dom.Size())
	}
	if math.Abs(dom.Center-359.5) > 1 {
		t.Errorf("dominant center = %.2f, want ≈359.5", dom.Center)
	}
}

func TestKMeans1DErrors(t *testing.T) {
	if _, err := KMeans1D(nil, 2, 0); !errors.Is(err, ErrNoObservations) {
		t.Errorf("empty input error = %v, want ErrNoObservations", err)
	}
	if _, err := KMeans1D([]float64{1}, 2, 0); !errors.Is(err, ErrNoObservations) {
		t.Errorf("k>n error = %v, want ErrNoObservations", err)
	}
	if _, err := KMeans1D([]float64{1, 2}, 0, 0); err == nil {
		t.Error("k=0 succeeded, want error")
	}
	if _, err := DominantCluster(nil); err == nil {
		t.Error("DominantCluster(nil) succeeded, want error")
	}
}

func TestKMeans1DSingleCluster(t *testing.T) {
	clusters, err := KMeans1D([]float64{5, 5, 5, 5}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Center != 5 || clusters[0].Size() != 4 {
		t.Errorf("clusters = %+v", clusters)
	}
}

// Property: clustering partitions the input — sizes sum to n, members are
// sorted ascending, and centers are ordered.
func TestKMeans1DPartitionProperty(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		values := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				values = append(values, math.Mod(v, 1e6))
			}
		}
		if len(values) == 0 {
			return true
		}
		k := 1 + int(kRaw)%3
		if len(values) < k {
			return true
		}
		clusters, err := KMeans1D(values, k, 0)
		if err != nil {
			return false
		}
		total := 0
		for i, c := range clusters {
			total += c.Size()
			if !sort.Float64sAreSorted(c.Values) {
				return false
			}
			if i > 0 && clusters[i-1].Center > c.Center {
				return false
			}
		}
		return total == len(values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty input should yield 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
}
