package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycleAndParentLinks(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1})
	ctx, root := tr.Start(context.Background(), "root")
	if root == nil || !root.Recording() {
		t.Fatalf("root span not recording at rate 1")
	}
	root.SetAttr("kind", "test")
	root.SetInt("count", 42)
	root.SetBool("ok", true)
	root.Event("checkpoint", SpanAttr{Key: "k", Value: "v"})

	_, child := tr.Start(ctx, "child")
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace %s != root trace %s", child.TraceID, root.TraceID)
	}
	if child.ParentID != root.SpanID {
		t.Fatalf("child parent %s != root span %s", child.ParentID, root.SpanID)
	}
	child.End()
	root.End()
	root.End() // idempotent

	spans := tr.Spans(0)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Newest first: root ended last.
	if spans[0].Name != "root" || spans[1].Name != "child" {
		t.Fatalf("span order %s,%s; want root,child", spans[0].Name, spans[1].Name)
	}
	got := map[string]string{}
	for _, a := range spans[0].Attrs {
		got[a.Key] = a.Value
	}
	if got["kind"] != "test" || got["count"] != "42" || got["ok"] != "true" {
		t.Fatalf("root attrs = %v", got)
	}
	if len(spans[0].Events) != 1 || spans[0].Events[0].Name != "checkpoint" {
		t.Fatalf("root events = %v", spans[0].Events)
	}

	byTrace := tr.TraceSpans(root.TraceID)
	if len(byTrace) != 2 || byTrace[0].Name != "root" {
		t.Fatalf("TraceSpans = %v, want [root child] by start", byTrace)
	}
}

func TestSamplingRateZeroKeepsErrorsSlowAndForced(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0, SlowThreshold: 10 * time.Millisecond})

	_, healthy := tr.Start(context.Background(), "healthy")
	healthy.End()
	if n := len(tr.Spans(0)); n != 0 {
		t.Fatalf("healthy span recorded at rate 0 (%d spans)", n)
	}

	_, failed := tr.Start(context.Background(), "failed")
	failed.Fail(errors.New("boom"))
	failed.End()

	_, slow := tr.Start(context.Background(), "slow")
	slow.Start = slow.Start.Add(-time.Second) // fake a long duration
	slow.End()

	_, forced := tr.Start(context.Background(), "forced")
	forced.ForceSample()
	if !forced.Sampled() {
		t.Fatalf("forced span not Sampled")
	}
	forced.End()

	names := map[string]bool{}
	for _, s := range tr.Spans(0) {
		names[s.Name] = true
	}
	for _, want := range []string{"failed", "slow", "forced"} {
		if !names[want] {
			t.Fatalf("span %q not kept at rate 0 (got %v)", want, names)
		}
	}
}

func TestSamplingInheritedByChildren(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	if child.Recording() != root.Recording() {
		t.Fatalf("child sampling %v != root %v", child.Recording(), root.Recording())
	}
	child.End()
	root.End()
}

func TestRingWrapNewestFirst(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 4, SampleRate: 1})
	for i := 0; i < 10; i++ {
		_, s := tr.Start(context.Background(), "span"+strconv.Itoa(i))
		s.End()
	}
	spans := tr.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, want := range []string{"span9", "span8", "span7", "span6"} {
		if spans[i].Name != want {
			t.Fatalf("spans[%d] = %s, want %s", i, spans[i].Name, want)
		}
	}
	if got := tr.Spans(2); len(got) != 2 || got[0].Name != "span9" {
		t.Fatalf("Spans(2) = %v", got)
	}
}

// TestSpansNewestFirstUnderConcurrentWrites reads the ring while other
// goroutines finish spans, both while the ring fills and once it has
// wrapped. Each writer numbers its spans, so its spans must be listed
// with strictly falling numbers: a span finished during the read must
// never be listed after older ones.
func TestSpansNewestFirstUnderConcurrentWrites(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		perGo    int // spans per writer; 0 writes until the reads end
	}{
		{"filling", 1 << 14, 4000},
		{"wrapped", 1 << 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer(TracerOptions{Capacity: tc.capacity, SampleRate: 1})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			const writers = 3
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; tc.perGo == 0 || i < tc.perGo; i++ {
						select {
						case <-stop:
							return
						default:
						}
						_, s := tr.Start(context.Background(), "w"+strconv.Itoa(g))
						s.SetInt("n", int64(i))
						s.End()
					}
				}(g)
			}
			for r := 0; r < 100; r++ {
				last := map[string]int{}
				for k, s := range tr.Spans(0) {
					n, _ := strconv.Atoi(s.Attrs[0].Value)
					if prev, ok := last[s.Name]; ok && n >= prev {
						close(stop)
						wg.Wait()
						t.Fatalf("read %d: %s span %d listed at %d, after its span %d", r, s.Name, n, k, prev)
					}
					last[s.Name] = n
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

func TestNilTracerAndNilSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "x")
	if s != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	if SpanFrom(ctx) != nil {
		t.Fatalf("nil span attached to context")
	}
	// All recorder methods must be safe on the nil span.
	s.SetAttr("k", "v")
	s.SetInt("k", 1)
	s.SetBool("k", true)
	s.Event("e")
	s.Fail(errors.New("x"))
	s.ForceSample()
	s.Discard()
	s.End()
	if s.Recording() || s.Sampled() {
		t.Fatalf("nil span claims to record")
	}
	if tr.Spans(0) != nil || tr.TraceSpans(strings.Repeat("a", 32)) != nil {
		t.Fatalf("nil tracer returned spans")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1})
	_, s := tr.Start(context.Background(), "root")
	h := Traceparent(s)
	traceID, parentID, sampled, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q rejected", h)
	}
	if traceID != s.TraceID || parentID != s.SpanID || !sampled {
		t.Fatalf("round trip: got (%s,%s,%v) want (%s,%s,true)", traceID, parentID, sampled, s.TraceID, s.SpanID)
	}
	s.End()

	unsampled := NewTracer(TracerOptions{SampleRate: 0})
	_, u := unsampled.Start(context.Background(), "root")
	if _, _, sampled, ok := ParseTraceparent(Traceparent(u)); !ok || sampled {
		t.Fatalf("unsampled traceparent = %q, want valid with flag 00", Traceparent(u))
	}
	u.End()

	if Traceparent(nil) != "" {
		t.Fatalf("nil span traceparent = %q", Traceparent(nil))
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header rejected")
	}
	bad := []string{
		"",
		"garbage",
		valid[:54],       // too short
		valid + "0",      // too long
		"01" + valid[2:], // unknown version
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",                 // all-zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01", // all-zero parent
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",                // uppercase hex
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",                // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",                // bad flags
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Fatalf("malformed header %q accepted", h)
		}
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0})
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	_, s := tr.StartRemote(context.Background(), "server", h)
	if s.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || s.ParentID != "00f067aa0ba902b7" {
		t.Fatalf("remote span (%s,%s) does not continue header", s.TraceID, s.ParentID)
	}
	if !s.Recording() {
		t.Fatalf("remote sampled flag not honored")
	}
	s.End()

	_, fresh := tr.StartRemote(context.Background(), "server", "garbage")
	if fresh.ParentID != "" || !validHex(fresh.TraceID, 32) {
		t.Fatalf("malformed header did not fall back to a fresh trace: %+v", fresh)
	}
	fresh.End()
}

func TestStartLink(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 0})
	traceID := strings.Repeat("ab", 16)
	parentID := strings.Repeat("cd", 8)
	_, s := tr.StartLink(context.Background(), "linked", traceID, parentID)
	if s.TraceID != traceID || s.ParentID != parentID || !s.Recording() {
		t.Fatalf("linked span %+v", s)
	}
	s.End()
	if got := tr.TraceSpans(traceID); len(got) != 1 {
		t.Fatalf("linked span not recorded: %v", got)
	}

	_, fallback := tr.StartLink(context.Background(), "linked", "nope", parentID)
	if fallback.TraceID == "nope" {
		t.Fatalf("invalid link IDs accepted")
	}
	fallback.End()
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	child.SetInt("scanned", 7)
	child.End()
	root.Fail(errors.New("partial"))
	root.End()
	_, other := tr.Start(context.Background(), "other")
	other.End()

	h := tr.Handler()
	type wire struct {
		Spans []struct {
			TraceID  string `json:"trace_id"`
			SpanID   string `json:"span_id"`
			ParentID string `json:"parent_id"`
			Name     string `json:"name"`
			Error    string `json:"error"`
			Attrs    []SpanAttr
		} `json:"spans"`
		Count int `json:"count"`
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("list: code %d, type %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	var list wire
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if list.Count != 3 {
		t.Fatalf("list count = %d, want 3", list.Count)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trace?trace_id="+root.TraceID, nil))
	var one wire
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if one.Count != 2 || one.Spans[0].Name != "root" || one.Spans[1].ParentID != root.SpanID {
		t.Fatalf("trace lookup = %+v", one)
	}
	if one.Spans[0].Error != "partial" {
		t.Fatalf("error not serialized: %+v", one.Spans[0])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trace?limit=1", nil))
	var limited wire
	if err := json.Unmarshal(rec.Body.Bytes(), &limited); err != nil {
		t.Fatalf("limit decode: %v", err)
	}
	if limited.Count != 1 {
		t.Fatalf("limit=1 returned %d spans", limited.Count)
	}

	for _, bad := range []string{"/v1/trace?trace_id=zz", "/v1/trace?limit=-1", "/v1/trace?limit=x"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Fatalf("%s: code %d, want 400", bad, rec.Code)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/trace", nil))
	if rec.Code != 405 {
		t.Fatalf("POST: code %d, want 405", rec.Code)
	}
}

// TestSpanDiscard: a discarded span reaches neither the ring nor the
// per-name metrics, and a later End does not resurrect it.
func TestSpanDiscard(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{SampleRate: 1, Registry: reg})
	_, kept := tr.Start(context.Background(), "kept")
	kept.End()
	_, gone := tr.Start(context.Background(), "gone")
	gone.Discard()
	gone.End()
	if spans := tr.Spans(0); len(spans) != 1 || spans[0].Name != "kept" {
		t.Fatalf("ring holds %d spans, want only the ended one", len(spans))
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `span="gone"`) {
		t.Fatalf("discarded span counted:\n%s", b.String())
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{SampleRate: 1, Registry: reg})
	_, ok := tr.Start(context.Background(), "op")
	ok.End()
	_, bad := tr.Start(context.Background(), "op")
	bad.Fail(errors.New("x"))
	bad.End()

	dropTr := NewTracer(TracerOptions{SampleRate: 0, Registry: reg})
	_, dropped := dropTr.Start(context.Background(), "op")
	dropped.End()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Both tracers share the registry; per-name metrics record every
	// finished span, dropped or not — so "op" counts all three.
	for _, want := range []string{
		`psp_trace_spans_total{span="op"} 3`,
		`psp_trace_span_errors_total{span="op"} 1`,
		`psp_trace_spans_recorded_total 2`,
		`psp_trace_spans_dropped_total 1`,
		`psp_trace_span_seconds`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestBuildInfoMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg, "1.2.3")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `psp_build_info{`) || !strings.Contains(out, `version="1.2.3"`) {
		t.Fatalf("exposition missing build info:\n%s", out)
	}
	for _, want := range []string{"psp_process_start_time_seconds", "psp_process_uptime_seconds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{Capacity: 64, SampleRate: 1, Registry: reg})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.Start(context.Background(), "root")
				_, child := tr.Start(ctx, "child")
				child.SetInt("i", int64(i))
				child.End()
				root.End()
			}
		}(g)
	}
	// Concurrent readers must never block or tear.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, s := range tr.Spans(0) {
				if s.TraceID == "" {
					t.Error("torn span read")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
}
