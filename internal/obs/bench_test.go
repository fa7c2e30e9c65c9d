package obs

import (
	"testing"
	"time"
)

// The recorder micro-benchmarks pin the per-event cost the store, WAL
// and monitor hot paths pay when instrumented: one atomic RMW for a
// counter, a bucket scan plus three atomics for a histogram.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_events_total", "Benchmark counter.")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultLatencyBuckets, LatencyScale)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// A mid-range latency: the scan crosses half the buckets.
			h.Observe(int64(1500 * time.Microsecond))
		}
	})
}
