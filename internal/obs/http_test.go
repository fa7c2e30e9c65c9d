package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMiddlewareRecording: status classes and latency land in the
// right per-route series. The middleware's clock is stepped by exactly
// 2 ms inside each ok request, so the latency bucket is exact.
func TestMiddlewareRecording(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, nil)
	clock := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	hm.now = func() time.Time { return clock }

	okHandler := hm.Wrap("/v1/ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		clock = clock.Add(2 * time.Millisecond)
		w.Write([]byte("hello"))
	}))
	failHandler := hm.Wrap("/v1/fail", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		okHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ok", nil))
		if rec.Code != 200 {
			t.Fatalf("ok status = %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	failHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/fail", nil))
	if rec.Code != 503 {
		t.Fatalf("fail status = %d", rec.Code)
	}

	ok2xx := reg.Counter("psp_http_requests_total", "",
		Label{"route", "/v1/ok"}, Label{"code", "2xx"})
	if got := ok2xx.Value(); got != 3 {
		t.Fatalf("2xx count = %d, want 3", got)
	}
	fail5xx := reg.Counter("psp_http_requests_total", "",
		Label{"route", "/v1/fail"}, Label{"code", "5xx"})
	if got := fail5xx.Value(); got != 1 {
		t.Fatalf("5xx count = %d, want 1", got)
	}
	lat := reg.Histogram("psp_http_request_seconds", "", DefaultLatencyBuckets, LatencyScale,
		Label{"route", "/v1/ok"})
	if got := lat.Count(); got != 3 {
		t.Fatalf("latency count = %d, want 3", got)
	}
	// The 2ms steps land in the (1ms, 2.5ms] bucket; interpolated p50
	// must fall inside it.
	if p50 := lat.Quantile(0.5); p50 <= 0.001 || p50 > 0.0025 {
		t.Fatalf("latency p50 = %v, want in (1ms, 2.5ms]", p50)
	}
}

// TestRequestIDPropagation: inbound IDs are honored, missing IDs are
// minted, the response always echoes one, and the handler sees both
// the ID and a request-scoped logger carrying it.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	hm := NewHTTPMetrics(NewRegistry(), logger)

	var seenID string
	h := hm.Wrap("/v1/echo", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenID = RequestIDFrom(r.Context())
		LoggerFrom(r.Context()).Info("handled")
		w.WriteHeader(http.StatusNoContent)
	}))

	req := httptest.NewRequest("GET", "/v1/echo", nil)
	req.Header.Set(RequestIDHeader, "upstream-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seenID != "upstream-42" {
		t.Fatalf("handler saw request_id %q, want upstream-42", seenID)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "upstream-42" {
		t.Fatalf("response request_id %q, want upstream-42", got)
	}
	if !strings.Contains(logBuf.String(), "request_id=upstream-42") {
		t.Fatalf("handler log line missing request_id:\n%s", logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "msg=handled") {
		t.Fatalf("missing handler log line:\n%s", logBuf.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/echo", nil))
	minted := rec.Header().Get(RequestIDHeader)
	if minted == "" || minted == "upstream-42" {
		t.Fatalf("minted request_id = %q", minted)
	}
	if seenID != minted {
		t.Fatalf("handler saw %q, response carried %q", seenID, minted)
	}
}

// TestInstrumentDynamicRoute: the per-request route resolver shares
// series across requests with the same label.
func TestInstrumentDynamicRoute(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, nil)
	h := hm.Instrument(func(r *http.Request) string {
		if strings.HasPrefix(r.URL.Path, "/v2/search") {
			return "/v2/search"
		}
		return "other"
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	for _, path := range []string{"/v2/search?q=a", "/v2/search?q=b", "/nope"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}
	if got := reg.Counter("psp_http_requests_total", "",
		Label{"route", "/v2/search"}, Label{"code", "2xx"}).Value(); got != 2 {
		t.Fatalf("/v2/search 2xx = %d, want 2", got)
	}
	if got := reg.Counter("psp_http_requests_total", "",
		Label{"route", "other"}, Label{"code", "2xx"}).Value(); got != 1 {
		t.Fatalf("other 2xx = %d, want 1", got)
	}
}

func TestPprofHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	PprofHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof cmdline status = %d", rec.Code)
	}
}
