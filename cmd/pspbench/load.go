package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// window is one measured pass: ops due before from are warm-up and
// discarded, the pass ends at end.
type window struct {
	start, from, end time.Time
}

func newWindow(warmup, measure time.Duration) window {
	start := time.Now()
	return window{start: start, from: start.Add(warmup), end: start.Add(warmup + measure)}
}

func (w window) measured(t time.Time) bool { return !t.Before(w.from) && t.Before(w.end) }

// seconds is the measured span's length.
func (w window) seconds() float64 { return w.end.Sub(w.from).Seconds() }

// schedule drives one open-loop stream: op i is due at w.start +
// i·interval. prepare builds op i's input ahead of its due time; the
// generator then sleeps until the op is due (never sending early) and
// runs it synchronously — one request in flight per stream — so a slow
// op delays the ops behind it, and callers time each op from its due
// time so that delay counts against the system rather than vanishing
// from the record. It returns how late the generator ran each measured
// op (run time minus due time).
func schedule(ctx context.Context, w window, interval time.Duration, prepare func(i int) func(due time.Time)) (late []time.Duration) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := w.start.Add(time.Duration(i) * interval)
		if !due.Before(w.end) || ctx.Err() != nil {
			return late
		}
		fire := prepare(i)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				return late
			case <-timer.C:
			}
		}
		if w.measured(due) {
			late = append(late, time.Since(due))
		}
		fire(due)
	}
}

// samples collects the latencies of ops due inside the measured span.
// One goroutine fills it; others read it after that goroutine is done.
type samples struct {
	w window
	d []time.Duration
}

func (s *samples) add(due time.Time, d time.Duration) {
	if !s.w.measured(due) {
		return
	}
	s.d = append(s.d, max(d, 0))
}

func (s *samples) all() []time.Duration { return s.d }

// quantile is the nearest-rank q-quantile (0 < q ≤ 1); 0 without
// samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapLiveMB forces garbage collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runtimeStats is the Go runtime's share of a measured pass.
type runtimeStats struct {
	gcCycles       float64
	gcPauseMS      float64
	heapPeakMB     float64
	goroutinesPeak float64
}

// rtSampler samples heap and goroutine counts every 50 ms through
// runtime/metrics and diffs the GC counters across a window's measured
// span.
type rtSampler struct {
	stop     chan struct{}
	done     chan struct{}
	started  bool
	gc0      runtime.MemStats
	heapPeak uint64
	goPeak   uint64
}

func sampleRuntime(w window) *rtSampler {
	s := &rtSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		wait := time.NewTimer(time.Until(w.from))
		select {
		case <-s.stop:
			wait.Stop()
			return
		case <-wait.C:
		}
		s.started = true
		runtime.ReadMemStats(&s.gc0)
		probe := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(probe)
			if v := probe[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.heapPeak {
				s.heapPeak = v.Uint64()
			}
			if v := probe[1].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.goPeak {
				s.goPeak = v.Uint64()
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the pass's runtime figures.
func (s *rtSampler) finish() runtimeStats {
	close(s.stop)
	<-s.done
	if !s.started {
		return runtimeStats{}
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return runtimeStats{
		gcCycles:       float64(end.NumGC - s.gc0.NumGC),
		gcPauseMS:      float64(end.PauseTotalNs-s.gc0.PauseTotalNs) / 1e6,
		heapPeakMB:     float64(s.heapPeak) / (1 << 20),
		goroutinesPeak: float64(s.goPeak),
	}
}
