package psp

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// wireTrace mirrors the GET /v1/trace JSON schema.
type wireTrace struct {
	Spans []struct {
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		ParentID string `json:"parent_id"`
		Name     string `json:"name"`
		Error    string `json:"error"`
		Attrs    []struct {
			Key   string `json:"key"`
			Value string `json:"value"`
		} `json:"attrs"`
	} `json:"spans"`
	Count int `json:"count"`
}

func getTrace(t *testing.T, url string) wireTrace {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var out wireTrace
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return out
}

// pollTrace re-reads url until done accepts the trace, failing the test
// after 10 s. A span reaches the ring when it ends, which can be after
// the response or publication a test waited for: the monitor publishes
// before its flush span ends, and a server span ends after the client
// has its response.
func pollTrace(t *testing.T, url string, done func(wireTrace) bool) wireTrace {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tr := getTrace(t, url)
		if done(tr) || time.Now().After(deadline) {
			return tr
		}
		time.Sleep(time.Millisecond)
	}
}

// newTracedBackend stands up a sociald-shaped backend: a small corpus
// behind the HTTP search API, instrumented middleware with its own
// tracer, and GET /v1/trace mounted — the daemon wiring in miniature.
func newTracedBackend(t *testing.T, name string, days []int) (url string) {
	t.Helper()
	store := NewSocialStore()
	for _, d := range days {
		p := &Post{
			ID:        fmt.Sprintf("%s-d%02d", name, d),
			Author:    "author-" + name,
			Text:      "federated #chiptuning stage1 traffic",
			CreatedAt: time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, d),
			Region:    RegionEurope,
			Metrics:   PostMetrics{Views: 100 + d},
		}
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	// Rate 0: the backend records only because the frontend's inbound
	// traceparent carries the sampled flag.
	tracer := NewTracer(TracerOptions{SampleRate: 0})
	httpMet := NewHTTPMetrics(NewMetricsRegistry(), nil).WithTracer(tracer)
	mux := http.NewServeMux()
	mux.Handle("/v2/", httpMet.Instrument(
		func(r *http.Request) string { return r.URL.Path },
		NewSocialServer(store, nil).Handler()))
	mux.Handle("/v1/trace", TraceHandler(tracer))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestEndToEndDistributedTrace is the acceptance path: a pspd-shaped
// frontend — durable store, monitor federating over two sociald-shaped
// backends, traced HTTP API — ingests one post over HTTP and must
// yield a single trace, retrievable from GET /v1/trace by trace ID,
// containing the server span, the store/WAL ingest spans, the linked
// monitor flush, and per-backend client child spans whose trace ID the
// backends' own /v1/trace endpoints confirm across the wire.
func TestEndToEndDistributedTrace(t *testing.T) {
	tracer := NewTracer(TracerOptions{SampleRate: 1})

	alphaURL := newTracedBackend(t, "alpha", []int{1, 3, 5})
	betaURL := newTracedBackend(t, "beta", []int{2, 4, 6})

	store, err := OpenSocialStore(t.TempDir(), SocialDurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	store.SetTracer(tracer)

	multi, err := NewMultiPlatformOptions(MultiOptions{Partial: true, Tracer: tracer},
		PlatformSource{Name: "local", Searcher: store},
		PlatformSource{Name: "alpha", Searcher: NewSocialClient(alphaURL)},
		PlatformSource{Name: "beta", Searcher: NewSocialClient(betaURL)},
	)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Searcher: multi})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(MonitorConfig{
		Framework: fw,
		Store:     store,
		Searcher:  multi,
		Input: SocialInput{Threats: []*ThreatScenario{{
			ID: "TS-ECM-01", Name: "ECM reprogramming",
			DamageIDs: []string{"DS-01"},
			Property:  PropertyIntegrity,
			STRIDE:    Tampering,
			Profiles:  []AttackerProfile{ProfileInsider},
			Vector:    VectorPhysical,
			Keywords:  []string{"chiptuning", "stage1"},
		}}},
		Debounce: 20 * time.Millisecond,
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(runCtx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("monitor did not stop after cancellation")
		}
	})
	waitCtx, waitCancel := context.WithTimeout(runCtx, 60*time.Second)
	defer waitCancel()
	if _, err := m.WaitFor(waitCtx, 1); err != nil {
		t.Fatalf("initial assessment: %v", err)
	}

	api := NewMonitorAPI(m).WithObservability(NewMetricsRegistry(), nil).WithTracing(tracer)
	front := httptest.NewServer(api.Handler())
	t.Cleanup(front.Close)

	// One ingest over HTTP: the server span roots the trace.
	body := `[{"id":"ingest-001","author":"newuser","text":"fresh #chiptuning stage1 file","created_at":"2024-02-01T10:00:00Z","region":"EU","metrics":{"views":500}}]`
	resp, err := http.Post(front.URL+"/v1/posts", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if _, err := m.WaitFor(waitCtx, 2); err != nil {
		t.Fatalf("post-ingest assessment: %v", err)
	}

	// Find the ingest trace: the one holding the store.add span.
	var traceID string
	list := pollTrace(t, front.URL+"/v1/trace?limit=500", func(list wireTrace) bool {
		for _, s := range list.Spans {
			if s.Name == "store.add" {
				traceID = s.TraceID
				return true
			}
		}
		return false
	})
	if traceID == "" {
		t.Fatalf("no store.add span among %d recorded spans", list.Count)
	}

	// The flush span ends after the publication waited for above, and
	// the server span after the response: poll until the trace holds
	// every stage.
	wantNames := []string{"store.add", "wal.append", "monitor.flush", "multi.search", "multi.backend"}
	var byName map[string][]int
	var serverSpan bool
	trace := pollTrace(t, front.URL+"/v1/trace?trace_id="+traceID, func(trace wireTrace) bool {
		byName, serverSpan = map[string][]int{}, false
		for i, s := range trace.Spans {
			byName[s.Name] = append(byName[s.Name], i)
			if strings.HasPrefix(s.Name, "http.server ") {
				serverSpan = true
			}
		}
		for _, want := range wantNames {
			if len(byName[want]) == 0 {
				return false
			}
		}
		return serverSpan
	})
	for _, s := range trace.Spans {
		if s.TraceID != traceID {
			t.Fatalf("span %s leaked into trace %s", s.Name, traceID)
		}
	}
	for _, want := range wantNames {
		if len(byName[want]) == 0 {
			t.Fatalf("trace %s missing %q span; has %v", traceID, want, byName)
		}
	}
	if !serverSpan {
		t.Fatalf("trace %s has no http.server span; spans %v", traceID, byName)
	}

	// Parent links: wal.append under store.add, monitor.flush linked to
	// store.add, multi.search under monitor.flush.
	spanID := func(idx int) string { return trace.Spans[idx].SpanID }
	parent := func(idx int) string { return trace.Spans[idx].ParentID }
	add, wal := byName["store.add"][0], byName["wal.append"][0]
	flush := byName["monitor.flush"][0]
	if parent(wal) != spanID(add) {
		t.Fatalf("wal.append parent %s, want store.add %s", parent(wal), spanID(add))
	}
	if parent(flush) != spanID(add) {
		t.Fatalf("monitor.flush parent %s, want store.add %s", parent(flush), spanID(add))
	}
	// The delta run issues one federated query per re-filled slice;
	// every multi.search hangs off the flush, every multi.backend off
	// one of those searches.
	searches := map[string]bool{}
	for _, idx := range byName["multi.search"] {
		if parent(idx) != spanID(flush) {
			t.Fatalf("multi.search parent %s, want monitor.flush %s", parent(idx), spanID(flush))
		}
		searches[spanID(idx)] = true
	}

	// Per-backend client child spans with cost attrs.
	backends := map[string]bool{}
	for _, idx := range byName["multi.backend"] {
		s := trace.Spans[idx]
		if !searches[s.ParentID] {
			t.Fatalf("multi.backend parent %s is not a multi.search span", s.ParentID)
		}
		attrs := map[string]string{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["posts"] == "" {
			t.Fatalf("multi.backend span lacks posts attr: %v", attrs)
		}
		backends[attrs["backend"]] = true
	}
	for _, want := range []string{"local", "alpha", "beta"} {
		if !backends[want] {
			t.Fatalf("no multi.backend span for %q (got %v)", want, backends)
		}
	}

	// Across the wire: each sociald backend recorded a server span in
	// the SAME trace, retrievable from its own /v1/trace endpoint.
	for _, backend := range []string{alphaURL, betaURL} {
		remote := pollTrace(t, backend+"/v1/trace?trace_id="+traceID, func(tr wireTrace) bool { return tr.Count > 0 })
		if remote.Count == 0 {
			t.Fatalf("backend %s recorded no span for trace %s", backend, traceID)
		}
		if !strings.HasPrefix(remote.Spans[0].Name, "http.server ") {
			t.Fatalf("backend span = %q, want http.server", remote.Spans[0].Name)
		}
	}
}
