package monitor

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// TestAPIReadinessGate: /v1/readyz reports 503 with reasons until both
// the initial assessment and the initial TARA pass land, while
// /v1/healthz stays 200 throughout (liveness is not readiness).
func TestAPIReadinessGate(t *testing.T) {
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	m, err := New(Config{Framework: fw, Store: store, Input: in, Debounce: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	taraReg := tara.NewRegistry()
	genTenantFleet(t, taraReg, 2)
	tfw, err := core.New(core.Config{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTARAMonitor(TARAConfig{Framework: tfw, Registry: taraReg, Debounce: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(m).WithTARA(tm).Handler())
	defer srv.Close()

	// Neither loop is running: unready, both reasons named.
	res, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before run = %d, want 503", res.StatusCode)
	}
	for _, want := range []string{"initial assessment pending", "initial TARA rating pass pending"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("readyz reasons missing %q: %s", want, body)
		}
	}
	res, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz before run = %d, want 200 (liveness)", res.StatusCode)
	}
	if h.Ready || len(h.Reasons) != 2 {
		t.Fatalf("healthz readiness before run = %+v", h)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)
	go tm.Run(ctx)
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if _, err := m.WaitFor(waitCtx, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range taraReg.Names() {
		if _, err := tm.WaitForTenant(waitCtx, name, 1); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err = http.Get(srv.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz stayed %d after initial runs", res.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = healthResponse{}
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if !h.Ready || len(h.Reasons) != 0 {
		t.Fatalf("healthz readiness after run = %+v", h)
	}
	if h.Shards == 0 || h.Posts == 0 {
		t.Fatalf("healthz store detail missing: %+v", h)
	}
}

// TestAPIObservabilityEndToEnd: with a registry attached, requests get
// IDs, routes record under psp_http_*, and /v1/metrics exposes the
// monitor and TARA families alongside the gauge callbacks, with
// per-tenant rating passes under the tara.rate span series of a
// tracer on the same registry.
func TestAPIObservabilityEndToEnd(t *testing.T) {
	obsReg := obs.NewRegistry()
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	m, err := New(Config{
		Framework: fw, Store: store, Input: in,
		Debounce: 20 * time.Millisecond,
		Metrics:  NewMetrics(obsReg),
	})
	if err != nil {
		t.Fatal(err)
	}
	taraReg := tara.NewRegistry()
	genTenantFleet(t, taraReg, 2)
	tfw, err := core.New(core.Config{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTARAMonitor(TARAConfig{
		Framework: tfw, Registry: taraReg,
		Debounce: 10 * time.Millisecond,
		Metrics:  NewTARAMetrics(obsReg),
		Tracer:   obs.NewTracer(obs.TracerOptions{Registry: obsReg}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)
	go tm.Run(ctx)
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if _, err := m.WaitFor(waitCtx, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range taraReg.Names() {
		if _, err := tm.WaitForTenant(waitCtx, name, 1); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(NewAPI(m).WithTARA(tm).
		WithObservability(obsReg, obs.NopLogger()).WithPprof().Handler())
	defer srv.Close()

	res, err := http.Get(srv.URL + "/v1/assessment")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("assessment = %d", res.StatusCode)
	}
	if res.Header.Get(obs.RequestIDHeader) == "" {
		t.Fatal("no request ID minted")
	}

	res, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", res.StatusCode)
	}
	if got := res.Header.Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("metrics content type = %q", got)
	}
	for _, want := range []string{
		"psp_monitor_generations_total",
		"psp_monitor_publish_seconds_bucket",
		"psp_monitor_generation 1",
		`psp_trace_spans_total{span="tara.rate"}`,
		"psp_tara_tenants 2",
		`psp_http_requests_total{code="2xx",route="/v1/assessment"} 1`,
		`psp_http_request_seconds_count{route="/v1/assessment"} 1`,
	} {
		if !strings.Contains(string(exp), want) {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}

	res, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", res.StatusCode)
	}
}
