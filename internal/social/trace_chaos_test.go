// Chaos tracing tests: a federated partial-failure page must record
// one coherent distributed trace — stable trace ID across the HTTP
// hop, correct parent links, breaker/retry decisions as span events —
// and a durable ingest must attribute its WAL cost inside the same
// trace. All deterministic and -race clean.
package social

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/fault"
	"github.com/psp-framework/psp/internal/obs"
)

func spanAttrs(s *obs.Span) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for _, a := range s.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

func spanEventNames(s *obs.Span) map[string]bool {
	m := make(map[string]bool, len(s.Events))
	for _, e := range s.Events {
		m[e.Name] = true
	}
	return m
}

func findSpan(t *testing.T, spans []*obs.Span, name string) *obs.Span {
	t.Helper()
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no %q span in %d recorded spans", name, len(spans))
	return nil
}

// TestChaosFederatedTraceCoherence: a Multi page over one healthy and
// one dead HTTP backend must produce a single trace — the multi.search
// root force-sampled by the degraded verdict, per-backend child spans
// carrying cost attrs, the client's retry decisions as events on the
// failing child, and the healthy backend's server span continuing the
// same trace ID across the wire even though that backend's own tracer
// would never have sampled it.
func TestChaosFederatedTraceCoherence(t *testing.T) {
	front := obs.NewTracer(obs.TracerOptions{SampleRate: 1})

	// alpha: a real HTTP backend with its own tracer at rate 0 — only
	// the inbound traceparent sampled flag can make it record.
	alphaStore := NewStore()
	if err := alphaStore.Add(samplePosts()...); err != nil {
		t.Fatal(err)
	}
	alphaTracer := obs.NewTracer(obs.TracerOptions{SampleRate: 0})
	var mu sync.Mutex
	var gotRequestID, gotTraceparent string
	alphaMet := obs.NewHTTPMetrics(obs.NewRegistry(), nil).WithTracer(alphaTracer)
	alphaSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotRequestID = r.Header.Get(obs.RequestIDHeader)
		gotTraceparent = r.Header.Get(obs.TraceparentHeader)
		mu.Unlock()
		alphaMet.Instrument(
			func(r *http.Request) string { return r.URL.Path },
			NewServer(alphaStore, nil).Handler(),
		).ServeHTTP(w, r)
	}))
	defer alphaSrv.Close()

	// beta: a dead gateway — transient 503s that the client retries
	// before giving up.
	betaSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer betaSrv.Close()

	alphaClient := NewClient(alphaSrv.URL, alphaSrv.Client())
	betaClient := NewClient(betaSrv.URL, betaSrv.Client())
	betaClient.MaxRetries = 1
	betaClient.sleep = func(context.Context, time.Duration) error { return nil }

	m, err := NewMultiOptions(MultiOptions{
		Partial:          true,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Tracer:           front,
	},
		PlatformSource{Name: "alpha", Searcher: alphaClient},
		PlatformSource{Name: "beta", Searcher: betaClient},
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx := obs.ContextWithRequestID(context.Background(), "req-chaos-1")
	page, err := m.Search(ctx, Query{MaxResults: MaxPageSize})
	if err != nil {
		t.Fatalf("partial page: %v", err)
	}
	if !page.Degraded || len(page.Posts) == 0 {
		t.Fatalf("page degraded=%v posts=%d, want degraded with alpha's posts", page.Degraded, len(page.Posts))
	}

	spans := front.Spans(0)
	root := findSpan(t, spans, "multi.search")
	if !validTraceID(root.TraceID) {
		t.Fatalf("root trace ID %q not 32 hex", root.TraceID)
	}
	// Every frontend span of the page shares the root's trace ID.
	var backends []*obs.Span
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Fatalf("span %s in trace %s, want %s", s.Name, s.TraceID, root.TraceID)
		}
		if s.Name == "multi.backend" {
			backends = append(backends, s)
		}
	}
	if len(backends) != 2 {
		t.Fatalf("recorded %d multi.backend spans, want 2", len(backends))
	}
	rootAttrs := spanAttrs(root)
	if rootAttrs["degraded"] != "true" || !spanEventNames(root)["degraded_page"] {
		t.Fatalf("degraded verdict missing from root: attrs=%v events=%v", rootAttrs, root.Events)
	}

	var alpha, beta *obs.Span
	for _, b := range backends {
		if b.ParentID != root.SpanID {
			t.Fatalf("backend span parent %s, want root %s", b.ParentID, root.SpanID)
		}
		switch spanAttrs(b)["backend"] {
		case "alpha":
			alpha = b
		case "beta":
			beta = b
		}
	}
	if alpha == nil || beta == nil {
		t.Fatalf("backend spans missing names: %+v", backends)
	}
	if a := spanAttrs(alpha); alpha.Err != "" || a["posts"] == "" || a["total"] == "" {
		t.Fatalf("alpha span: err=%q attrs=%v, want healthy with posts/total", alpha.Err, a)
	}
	if beta.Err == "" {
		t.Fatalf("beta span not failed: %+v", beta)
	}
	betaEvents := spanEventNames(beta)
	if !betaEvents["retry"] || !betaEvents["backend_failure"] {
		t.Fatalf("beta events = %v, want retry + backend_failure", beta.Events)
	}

	// The hop itself: alpha received the request ID and a traceparent
	// naming the alpha child span, and its server span — recorded only
	// because the inbound flag said sampled — continues the same trace.
	mu.Lock()
	reqID, tp := gotRequestID, gotTraceparent
	mu.Unlock()
	if reqID != "req-chaos-1" {
		t.Fatalf("alpha received request ID %q, want req-chaos-1", reqID)
	}
	traceID, parentID, sampled, ok := obs.ParseTraceparent(tp)
	if !ok || !sampled || traceID != root.TraceID || parentID != alpha.SpanID {
		t.Fatalf("alpha traceparent %q, want sampled (%s,%s)", tp, root.TraceID, alpha.SpanID)
	}
	serverSpans := alphaTracer.TraceSpans(root.TraceID)
	if len(serverSpans) == 0 {
		t.Fatal("alpha recorded no server span despite the sampled inbound flag")
	}
	srvSpan := serverSpans[0]
	if !strings.HasPrefix(srvSpan.Name, "http.server ") || srvSpan.ParentID != alpha.SpanID {
		t.Fatalf("alpha server span %q parent %s, want http.server child of %s", srvSpan.Name, srvSpan.ParentID, alpha.SpanID)
	}

	// Second page: beta's breaker (threshold 1) is now open — the skip
	// decision must appear as an event on a fresh trace.
	page2, err := m.Search(ctx, Query{MaxResults: MaxPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if !page2.Degraded {
		t.Fatal("second page not degraded under the open breaker")
	}
	root2 := findSpan(t, front.Spans(0), "multi.search")
	if root2.TraceID == root.TraceID {
		t.Fatal("second page reused the first page's trace ID")
	}
	var skipped *obs.Span
	for _, s := range front.TraceSpans(root2.TraceID) {
		if s.Name == "multi.backend" && spanAttrs(s)["backend"] == "beta" {
			skipped = s
		}
	}
	if skipped == nil || !spanEventNames(skipped)["breaker_skip"] {
		t.Fatalf("open-breaker skip not traced: %+v", skipped)
	}
}

func validTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// TestTraceDurableIngestAndSearchCost: a durable ingest under a traced
// context must record store.add and wal.append spans in the caller's
// trace with group-commit cost attrs, publish the ingest link for the
// monitor, and a traced search must attribute stripes visited and
// postings scanned.
func TestTraceDurableIngestAndSearchCost(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	s, err := OpenStoreDir(t.TempDir(), DurableOptions{Shards: 2, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetTracer(tr)

	ctx, root := tr.Start(context.Background(), "test.ingest")
	if _, err := s.AddCountContext(ctx, samplePosts()...); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := tr.TraceSpans(root.TraceID)
	add := findSpan(t, spans, "store.add")
	if add.ParentID != root.SpanID {
		t.Fatalf("store.add parent %s, want %s", add.ParentID, root.SpanID)
	}
	addAttrs := spanAttrs(add)
	if addAttrs["posts"] == "" || addAttrs["inserted"] == "" {
		t.Fatalf("store.add attrs = %v, want posts/inserted", addAttrs)
	}
	wal := findSpan(t, spans, "wal.append")
	if wal.ParentID != add.SpanID {
		t.Fatalf("wal.append parent %s, want store.add %s", wal.ParentID, add.SpanID)
	}
	walAttrs := spanAttrs(wal)
	if walAttrs["stripes"] == "" || walAttrs["records"] == "" || walAttrs["group_max"] == "" {
		t.Fatalf("wal.append attrs = %v, want stripes/records/group_max", walAttrs)
	}

	// The sampled ingest published its link for the monitor's flush.
	traceID, spanID := s.LastIngestTrace()
	if traceID != root.TraceID || spanID != add.SpanID {
		t.Fatalf("ingest link = (%s,%s), want (%s,%s)", traceID, spanID, root.TraceID, add.SpanID)
	}

	// Search cost attribution.
	sctx, sroot := tr.Start(context.Background(), "test.search")
	if _, err := s.Search(sctx, Query{AnyTags: []string{"chiptuning"}, MaxResults: MaxPageSize}); err != nil {
		t.Fatal(err)
	}
	sroot.End()
	search := findSpan(t, tr.TraceSpans(sroot.TraceID), "store.search")
	got := spanAttrs(search)
	for _, key := range []string{"stripes", "delta_posts", "scanned", "posts", "total"} {
		if got[key] == "" {
			t.Fatalf("store.search attrs = %v, missing %q", got, key)
		}
	}
	if got["stripes"] != "2" {
		t.Fatalf("store.search visited %s stripes, want 2", got["stripes"])
	}
}

// TestTraceIngestLinkLeadsChangefeed: the ingest link is published
// before the batch reaches the changefeed, so a consumer that reads
// LastIngestTrace the moment it receives a batch — as the monitor's
// flush does — sees that batch's store.add span, never the previous
// ingest's.
func TestTraceIngestLinkLeadsChangefeed(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	s := NewStore()
	s.SetTracer(tr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)
	type link struct{ traceID, spanID string }
	seen := make(chan link)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-feed.Ready():
			}
			if batch, _ := feed.Next(); len(batch) > 0 {
				traceID, spanID := s.LastIngestTrace()
				seen <- link{traceID, spanID}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		ictx, root := tr.Start(context.Background(), "test.ingest")
		if _, err := s.AddCountContext(ictx, backfillPost(i, i%60)); err != nil {
			t.Fatal(err)
		}
		root.End()
		got := <-seen
		add := findSpan(t, tr.TraceSpans(root.TraceID), "store.add")
		if got.traceID != root.TraceID || got.spanID != add.SpanID {
			t.Fatalf("ingest %d: consumer saw link (%s,%s), want its own store.add (%s,%s)",
				i, got.traceID, got.spanID, root.TraceID, add.SpanID)
		}
	}
}

// TestTraceIngestLinkWaitsForSpanEnd: the link is published before the
// ingest's batch, so a reader can find it while the ingest is still in
// flight — here held up in a slow WAL sync. LastIngestTrace returns it
// only once the store.add span has ended, so a span linked under it
// never starts inside its parent.
func TestTraceIngestLinkWaitsForSpanEnd(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	fs := &fault.FS{Sync: fault.New(fault.Config{Latency: 50 * time.Millisecond})}
	s, err := OpenStoreDir(t.TempDir(), DurableOptions{Shards: 1, CompactEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetTracer(tr)

	ctx, root := tr.Start(context.Background(), "test.ingest")
	defer root.End()
	added := make(chan error, 1)
	go func() {
		_, err := s.AddCountContext(ctx, backfillPost(0, 0))
		added <- err
	}()
	for s.lastIngest.Load() == nil {
		time.Sleep(time.Millisecond)
	}
	traceID, spanID := s.LastIngestTrace()
	ended := false
	for _, sp := range tr.TraceSpans(traceID) {
		ended = ended || (sp.Name == "store.add" && sp.SpanID == spanID)
	}
	if traceID != root.TraceID || !ended {
		t.Fatalf("LastIngestTrace = (%s,%s) before the store.add span of trace %s ended", traceID, spanID, root.TraceID)
	}
	if err := <-added; err != nil {
		t.Fatal(err)
	}
}
