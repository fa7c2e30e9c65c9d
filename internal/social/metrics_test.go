package social

import (
	"context"
	"testing"

	"github.com/psp-framework/psp/internal/obs"
)

// spanSeries returns the psp_trace_* count, error and latency series
// that a tracer recording into reg keeps for spans named name.
func spanSeries(reg *obs.Registry, name string) (total, errs *obs.Counter, seconds *obs.Histogram) {
	l := obs.Label{Key: "span", Value: name}
	return reg.Counter("psp_trace_spans_total", "", l),
		reg.Counter("psp_trace_span_errors_total", "", l),
		reg.Histogram("psp_trace_span_seconds", "", obs.DefaultLatencyBuckets, obs.LatencyScale, l)
}

// TestStoreMetricsRecording: adds and searches land in the span
// series of a tracer on the same registry, the search fan-out in the
// span's stripes attribute, inserted posts and changefeed publication
// in the attached surface; Stats mirrors the store as a typed snapshot.
func TestStoreMetricsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewStoreMetrics(reg)
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Registry: reg})
	s := NewStoreShards(4)
	s.SetMetrics(m)
	s.SetTracer(tr)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)

	for i := 0; i < 10; i++ {
		if err := s.Add(durPost(i, i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(durPost(0, 0)); err == nil {
		t.Fatal("duplicate add must fail")
	}
	adds, addErrors, addLatency := spanSeries(reg, "store.add")
	if got := adds.Value(); got != 11 {
		t.Fatalf("adds = %d, want 11", got)
	}
	if got := m.AddedPosts.Value(); got != 10 {
		t.Fatalf("added posts = %d, want 10", got)
	}
	if got := addErrors.Value(); got != 1 {
		t.Fatalf("add errors = %d, want 1", got)
	}
	if got := addLatency.Count(); got != 11 {
		t.Fatalf("add latency count = %d, want 11", got)
	}

	if _, err := s.Search(ctx, Query{MaxResults: 5}); err != nil {
		t.Fatal(err)
	}
	searches, _, searchLatency := spanSeries(reg, "store.search")
	if got := searches.Value(); got != 1 {
		t.Fatalf("searches = %d, want 1", got)
	}
	if got := searchLatency.Count(); got != 1 {
		t.Fatalf("search latency count = %d, want 1", got)
	}
	// An unwindowed query visits every stripe.
	if got := spanAttrs(findSpan(t, tr.Spans(0), "store.search"))["stripes"]; got != "4" {
		t.Fatalf("shard visits = %s, want 4", got)
	}

	if got := m.FeedPosts.Value(); got != 10 {
		t.Fatalf("feed posts = %d, want 10", got)
	}
	if m.FeedBatches.Value() == 0 {
		t.Fatal("no feed batches recorded")
	}

	st := s.Stats()
	if st.Posts != 10 || st.Shards != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ChangefeedSubscribers != 1 {
		t.Fatalf("subscribers = %d, want 1", st.ChangefeedSubscribers)
	}
	if st.ChangefeedBacklog != 10 {
		t.Fatalf("backlog = %d with 10 posts published and none taken, want 10", st.ChangefeedBacklog)
	}
	if st.Durable {
		t.Fatal("in-memory store reported durable")
	}

	// The gauge callbacks registered by SetMetrics read live state.
	var b safeWriter
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"psp_store_posts 10",
		"psp_store_changefeed_subscribers 1",
		"psp_store_changefeed_backlog_posts 10",
	} {
		if !containsSample(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if batch, _ := feed.Next(); len(batch) != 10 || s.ChangefeedBacklog() != 0 {
		t.Fatalf("Next took %d posts, leaving a backlog of %d; want 10 and 0", len(batch), s.ChangefeedBacklog())
	}
}

// TestDurableStoreMetrics: recovery gauges, WAL counters and
// compaction counters flow through DurableOptions.Metrics.
func TestDurableStoreMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := NewStoreMetrics(reg)
	opts := noCompact(2)
	opts.Metrics = m
	s, err := OpenStoreDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Add(durPost(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WAL.Appends.Value(); got == 0 {
		t.Fatal("no WAL appends recorded")
	}
	if m.WAL.Fsyncs.Value() == 0 {
		t.Fatal("no WAL fsyncs recorded")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.Compactions.Value(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	st := s.Stats()
	if !st.Durable || len(st.WALFloors) != 2 {
		t.Fatalf("durable stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a fresh surface: recovery duration and post count land
	// in the gauges.
	reg2 := obs.NewRegistry()
	m2 := NewStoreMetrics(reg2)
	opts2 := noCompact(0)
	opts2.Metrics = m2
	re, err := OpenStoreDir(dir, opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := m2.RecoveredPosts.Value(); got != 6 {
		t.Fatalf("recovered posts gauge = %v, want 6", got)
	}
	if m2.RecoverySeconds.Value() <= 0 {
		t.Fatal("recovery duration gauge not set")
	}
}

// safeWriter mirrors the obs test helper locally.
type safeWriter struct{ buf []byte }

func (w *safeWriter) Write(p []byte) (int, error) { w.buf = append(w.buf, p...); return len(p), nil }
func (w *safeWriter) String() string              { return string(w.buf) }

func containsSample(text, line string) bool {
	for len(text) > 0 {
		i := 0
		for i < len(text) && text[i] != '\n' {
			i++
		}
		if text[:i] == line {
			return true
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return false
}
