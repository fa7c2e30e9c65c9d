package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	psp "github.com/psp-framework/psp"
)

// traceCapacity sizes the traced pass's span ring. A pass that fills it
// fails: a wrapped ring silently drops spans from the per-layer
// figures.
const traceCapacity = 1 << 18

// layerNames lists the per-layer metrics in report order. A layer the
// workload does not exercise reports 0.
var layerNames = []struct{ name, unit string }{
	{"http.ingest.self_ms_p50", "ms"},
	{"http.ingest.unattributed_ms_p50", "ms"},
	{"store.add.calls", "count"},
	{"store.add.self_ms_p50", "ms"},
	{"store.add.self_ms_p99", "ms"},
	{"store.add.self_ms_max", "ms"},
	{"store.search.calls", "count"},
	{"store.search.self_ms_p50", "ms"},
	{"store.search.stripes_per_call", "count"},
	{"store.search.scanned_per_post", "ratio"},
	{"wal.append.ms_p50", "ms"},
	{"wal.append.ms_p99", "ms"},
	{"wal.append.records_per_fsync", "ratio"},
	{"compact.count", "count"},
	{"compact.bytes", "bytes"},
	{"compact.ms_p50", "ms"},
	{"open.ms_p50", "ms"},
	{"open.indexed_ratio", "ratio"},
	{"monitor.wait_ms_p50", "ms"},
	{"monitor.flush.calls", "count"},
	{"monitor.flush.self_ms_p50", "ms"},
	{"monitor.flush.self_ms_p99", "ms"},
	{"monitor.flush.recompute_ratio", "ratio"},
	{"monitor.flush.delta_posts_mean", "count"},
	{"monitor.busy_frac", "ratio"},
	{"monitor.restore.ms_p50", "ms"},
	{"monitor.restore.warm_ratio", "ratio"},
	{"core.delta.searches_per_flush", "count"},
	{"core.delta.invalidated_fills_per_flush", "count"},
	{"tara.rate.calls", "count"},
	{"tara.rate.self_ms_p50", "ms"},
	{"tara.rate.rerate_ratio", "ratio"},
	{"tara.rate.rating_calls_per_op", "count"},
	{"multi.search.self_ms_p50", "ms"},
	{"multi.backend.ms_p50", "ms"},
	{"multi.backend.ms_p99", "ms"},
	{"multi.backend.retries", "count"},
	{"multi.backend.breaker_skips", "count"},
	{"multi.backend.degraded_pages", "count"},
	{"sociald.search.self_ms_p50", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.selfsum_err_pct", "%"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms_total", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"go.goroutines_peak", "count"},
}

// maxSelfSumErrPct is how far an ingest trace's stage self times may
// sum from its root span's duration.
const maxSelfSumErrPct = 1.0

// spanSet indexes a traced pass's spans by identity and by parent.
type spanSet struct {
	all  []*psp.Span
	byID map[string]*psp.Span
	kids map[string][]*psp.Span
}

func spanKey(traceID, spanID string) string { return traceID + "/" + spanID }

func index(spans []*psp.Span) *spanSet {
	x := &spanSet{all: spans, byID: map[string]*psp.Span{}, kids: map[string][]*psp.Span{}}
	for _, s := range spans {
		x.byID[spanKey(s.TraceID, s.SpanID)] = s
		if s.ParentID != "" {
			k := spanKey(s.TraceID, s.ParentID)
			x.kids[k] = append(x.kids[k], s)
		}
	}
	return x
}

func spanEnd(s *psp.Span) time.Time { return s.Start.Add(s.Duration) }

// syncKids are s's children that start before s ends. A child starting
// after its parent ended is an asynchronous link (the monitor's delta
// run linked under the ingest that triggered it), not a stage of s.
func (x *spanSet) syncKids(s *psp.Span) []*psp.Span {
	var out []*psp.Span
	for _, c := range x.kids[spanKey(s.TraceID, s.SpanID)] {
		if c.Start.Before(spanEnd(s)) {
			out = append(out, c)
		}
	}
	return out
}

// self is s's duration minus the part of it its synchronous children
// cover (their union, so parallel children count once).
func (x *spanSet) self(s *psp.Span) time.Duration {
	type interval struct{ a, b time.Time }
	var ivs []interval
	for _, c := range x.syncKids(s) {
		a, b := c.Start, spanEnd(c)
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(spanEnd(s)) {
			b = spanEnd(s)
		}
		if b.After(a) {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var reach time.Time
	for _, iv := range ivs {
		if iv.a.Before(reach) {
			iv.a = reach
		}
		if iv.b.After(iv.a) {
			covered += iv.b.Sub(iv.a)
			reach = iv.b
		}
	}
	return s.Duration - covered
}

// treeSelf sums the self times of s and its synchronous descendants.
// For a trace whose stages run one after another that sum is s's
// duration: every instant belongs to exactly one stage.
func (x *spanSet) treeSelf(s *psp.Span) time.Duration {
	sum := x.self(s)
	for _, c := range x.syncKids(s) {
		sum += x.treeSelf(c)
	}
	return sum
}

// find returns the first synchronous descendant of s named name.
func (x *spanSet) find(s *psp.Span, name string) *psp.Span {
	for _, c := range x.syncKids(s) {
		if c.Name == name {
			return c
		}
		if d := x.find(c, name); d != nil {
			return d
		}
	}
	return nil
}

// under reports whether an ancestor of s is named name.
func (x *spanSet) under(s *psp.Span, name string) bool {
	for p := x.byID[spanKey(s.TraceID, s.ParentID)]; p != nil; p = x.byID[spanKey(p.TraceID, p.ParentID)] {
		if p.Name == name {
			return true
		}
	}
	return false
}

// named returns the spans called name that started in w's measured
// span.
func (x *spanSet) named(name string, w window) []*psp.Span {
	var out []*psp.Span
	for _, s := range x.all {
		if s.Name == name && w.measured(s.Start) {
			out = append(out, s)
		}
	}
	return out
}

func attrInt(s *psp.Span, key string) float64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			v, _ := strconv.ParseFloat(a.Value, 64)
			return v
		}
	}
	return 0
}

func attrTrue(s *psp.Span, key string) bool {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value == "true"
		}
	}
	return false
}

func durations(ss []*psp.Span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.Duration
	}
	return out
}

func (x *spanSet) selfs(ss []*psp.Span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = x.self(s)
	}
	return out
}

// sumAttr totals an integer attribute over spans.
func sumAttr(ss []*psp.Span, key string) float64 {
	var t float64
	for _, s := range ss {
		t += attrInt(s, key)
	}
	return t
}

func countWhere(ss []*psp.Span, ok func(*psp.Span) bool) float64 {
	n := 0
	for _, s := range ss {
		if ok(s) {
			n++
		}
	}
	return float64(n)
}

func events(ss []*psp.Span, name string) float64 {
	n := 0
	for _, s := range ss {
		for _, e := range s.Events {
			if e.Name == name {
				n++
			}
		}
	}
	return float64(n)
}

// layerMetrics derives the per-layer figures of a traced pass tp. The
// untraced pass base supplies the tracing-overhead reference and the Go
// runtime figures, which tracing itself would inflate. A root whose
// stage self times do not sum to its duration is a failed check on rep.
func layerMetrics(rep *report, x *spanSet, base, tp *pass) []metric {
	w := tp.w
	v := map[string]float64{}
	for k, val := range tp.layer {
		v[k] = val
	}
	q := func(ds []time.Duration, p float64) float64 { return ms(quantile(ds, p)) }

	v["http.ingest.self_ms_p50"] = q(x.selfs(x.named("http.server /v1/posts", w)), 0.5)
	var flushStarts []time.Time
	for _, s := range x.all {
		if s.Name == "monitor.flush" {
			flushStarts = append(flushStarts, s.Start)
		}
	}
	sort.Slice(flushStarts, func(i, j int) bool { return flushStarts[i].Before(flushStarts[j]) })
	var unattributed, waits []time.Duration
	var worst float64
	for _, r := range append(x.named("bench.ingest", w), x.named("bench.delta", w)...) {
		if r.Name == "bench.ingest" {
			unattributed = append(unattributed, x.self(r))
		}
		if r.Duration > 0 {
			worst = math.Max(worst, math.Abs(float64(x.treeSelf(r)-r.Duration))/float64(r.Duration)*100)
		}
		if add := x.find(r, "store.add"); add != nil {
			i := sort.Search(len(flushStarts), func(i int) bool { return !flushStarts[i].Before(spanEnd(add)) })
			if i < len(flushStarts) {
				waits = append(waits, flushStarts[i].Sub(spanEnd(r)))
			}
		}
	}
	if worst > maxSelfSumErrPct {
		rep.problem("an ingest trace's stage self times miss its root duration by %.2f%% (limit %.0f%%)", worst, maxSelfSumErrPct)
	}
	for i, d := range waits {
		if d < 0 {
			waits[i] = 0
		}
	}
	v["http.ingest.unattributed_ms_p50"] = q(unattributed, 0.5)
	v["trace.selfsum_err_pct"] = worst
	v["monitor.wait_ms_p50"] = q(waits, 0.5)

	adds := x.named("store.add", w)
	addSelf := x.selfs(adds)
	v["store.add.calls"] = float64(len(adds))
	v["store.add.self_ms_p50"] = q(addSelf, 0.5)
	v["store.add.self_ms_p99"] = q(addSelf, 0.99)
	v["store.add.self_ms_max"] = q(addSelf, 1)

	searches := x.named("store.search", w)
	v["store.search.calls"] = float64(len(searches))
	v["store.search.self_ms_p50"] = q(x.selfs(searches), 0.5)
	v["store.search.stripes_per_call"] = ratio(sumAttr(searches, "stripes"), float64(len(searches)))
	v["store.search.scanned_per_post"] = ratio(sumAttr(searches, "scanned"), sumAttr(searches, "posts"))

	wal := durations(x.named("wal.append", w))
	v["wal.append.ms_p50"] = q(wal, 0.5)
	v["wal.append.ms_p99"] = q(wal, 0.99)
	v["open.ms_p50"] = q(durations(x.named("bench.open", w)), 0.5)
	v["monitor.restore.ms_p50"] = q(durations(x.named("bench.restore", w)), 0.5)

	flushes := x.named("monitor.flush", w)
	flushSelf := x.selfs(flushes)
	n := float64(len(flushes))
	var busy time.Duration
	for _, d := range durations(flushes) {
		busy += d
	}
	v["monitor.flush.calls"] = n
	v["monitor.flush.self_ms_p50"] = q(flushSelf, 0.5)
	v["monitor.flush.self_ms_p99"] = q(flushSelf, 0.99)
	v["monitor.flush.recompute_ratio"] = ratio(countWhere(flushes, func(s *psp.Span) bool { return attrTrue(s, "recomputed") }), n)
	v["monitor.flush.delta_posts_mean"] = ratio(sumAttr(flushes, "delta_posts"), n)
	v["monitor.busy_frac"] = busy.Seconds() / w.seconds()
	v["core.delta.searches_per_flush"] = ratio(countWhere(searches, func(s *psp.Span) bool { return x.under(s, "monitor.flush") }), n)
	v["core.delta.invalidated_fills_per_flush"] = ratio(sumAttr(flushes, "invalidated_fills"), n)

	rates := x.named("tara.rate", w)
	v["tara.rate.calls"] = float64(len(rates))
	v["tara.rate.self_ms_p50"] = q(x.selfs(rates), 0.5)
	v["tara.rate.rerate_ratio"] = ratio(countWhere(rates, func(s *psp.Span) bool { return attrTrue(s, "rerated") }), float64(len(rates)))
	v["tara.rate.rating_calls_per_op"] = ratio(sumAttr(rates, "rating_calls"), tp.layer["tara.ops"])

	backends := x.named("multi.backend", w)
	bd := durations(backends)
	v["multi.search.self_ms_p50"] = q(x.selfs(x.named("multi.search", w)), 0.5)
	v["multi.backend.ms_p50"] = q(bd, 0.5)
	v["multi.backend.ms_p99"] = q(bd, 0.99)
	v["multi.backend.retries"] = events(backends, "retry")
	v["multi.backend.breaker_skips"] = events(backends, "breaker_skip")
	v["sociald.search.self_ms_p50"] = q(x.selfs(x.named("http.server /v2/search", w)), 0.5)

	if b := quantile(base.response.all(), 0.5); b > 0 {
		v["trace.overhead_pct"] = (float64(quantile(tp.response.all(), 0.5))/float64(b) - 1) * 100
	}
	v["trace.spans"] = countWhere(x.all, func(s *psp.Span) bool { return w.measured(s.Start) })
	v["go.gc_cycles"] = base.rt.gcCycles
	v["go.gc_pause_ms_total"] = base.rt.gcPauseMS
	v["go.heap_peak_mb"] = base.rt.heapPeakMB
	v["go.goroutines_peak"] = base.rt.goroutinesPeak

	out := make([]metric, len(layerNames))
	for i, l := range layerNames {
		out[i] = metric{l.name, v[l.name], l.unit}
	}
	return out
}
