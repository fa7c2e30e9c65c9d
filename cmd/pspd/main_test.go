package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/daemon"
)

// testOpts is the base daemon configuration of the e2e tests: fast
// debounce, 4 store shards, quiet logs.
func testOpts(addr string) options {
	return options{
		Flags:    daemon.Flags{Seed: 42, Shards: 4, LogLevel: "warn", LogFormat: "text"},
		addr:     addr,
		debounce: 20 * time.Millisecond,
		drain:    time.Second,
	}
}

// TestDaemonServesAndShutsDownGracefully boots the full daemon (store →
// monitor → HTTP), drives ingest and assessment over the wire, then
// cancels the signal context — the SIGTERM path — and requires a clean
// exit.
func TestDaemonServesAndShutsDownGracefully(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		opts := testOpts(addr)
		opts.taraFleet = true
		done <- run(ctx, opts)
	}()

	base := "http://" + addr
	waitHealthy(t, base)

	// The assessment comes up after the initial cold run.
	var assessment struct {
		Generation int `json:"generation"`
		CorpusSize int `json:"corpus_size"`
		Index      []struct {
			Topic string `json:"topic"`
		} `json:"index"`
		Tunings []struct {
			ThreatID string            `json:"threat_id"`
			Ratings  map[string]string `json:"ratings"`
		} `json:"tunings"`
	}
	waitAssessment(t, base, 1, &assessment)
	if len(assessment.Index) == 0 || len(assessment.Tunings) != 2 {
		t.Fatalf("assessment = %+v", assessment)
	}

	// Ingest posts over the wire; the assessment generation advances.
	ingestPost(t, base, "wire-1")
	waitAssessment(t, base, 2, &assessment)

	// The TARA fleet is up: one tenant per reference-architecture ECU.
	var dir struct {
		Tenants []struct {
			Tenant string `json:"tenant"`
		} `json:"tenants"`
	}
	resp, err := http.Get(base + "/v1/tara")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dir.Tenants) < 10 {
		t.Fatalf("fleet has %d tenants, want ≥ 10", len(dir.Tenants))
	}

	// The ECM tenant carries the socially monitored TS-ECM-01: the
	// first assessment's tunings land as a version-2 mutation there.
	ecm := waitTenant(t, base, "ECM", 2)
	calls, total := ecm.RatingCalls, ecm.TotalThreats
	if total < 3 {
		t.Fatalf("ECM tenant has %d threats, want ≥ 3 (derived + social)", total)
	}

	// A single-threat mutation over the wire re-rates exactly one
	// threat — the incrementality acceptance check, measured through the
	// tenant's rating-call counter.
	mutateTenant(t, base, "ECM", ecm.Version)
	after := waitTenant(t, base, "ECM", ecm.Version+1)
	if after.RatedThreats != 1 {
		t.Fatalf("mutation re-rated %d threats, want 1", after.RatedThreats)
	}
	if got := after.RatingCalls - calls; got != 1 {
		t.Fatalf("rating calls advanced by %d, want 1", got)
	}
	if after.TotalThreats != total {
		t.Fatalf("threat count changed: %d → %d", total, after.TotalThreats)
	}

	// SIGTERM path: cancelling the signal context drains and exits nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exit error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

// TestDaemonWarmRestart boots the daemon with a data directory, stops
// it, and boots a second life over the same directory: the corpus must
// recover (not re-seed), and the first served assessment must come from
// the persisted state — same generation, restored flag set — rather
// than a cold run.
func TestDaemonWarmRestart(t *testing.T) {
	dataDir := t.TempDir()
	boot := func() (string, context.CancelFunc, chan error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			opts := testOpts(addr)
			opts.DataDir = dataDir
			done <- run(ctx, opts)
		}()
		return "http://" + addr, cancel, done
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}

	// A state file an older build left behind is not read.
	legacy := filepath.Join(dataDir, "monitor.json")
	if err := os.WriteFile(legacy, []byte(`{"generation": 7, "result": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var first struct {
		Generation int  `json:"generation"`
		CorpusSize int  `json:"corpus_size"`
		Restored   bool `json:"restored"`
	}
	base, cancel, done := boot()
	waitHealthy(t, base)
	waitAssessment(t, base, 1, &first)
	if first.Restored {
		t.Fatalf("first life served a restored assessment: %+v", first)
	}
	stop(cancel, done)
	if _, err := os.Stat(filepath.Join(dataDir, "monitor.state")); err != nil {
		t.Fatalf("no monitor.state after the first life: %v", err)
	}

	var second struct {
		Generation int  `json:"generation"`
		CorpusSize int  `json:"corpus_size"`
		Restored   bool `json:"restored"`
	}
	base, cancel, done = boot()
	waitHealthy(t, base)
	waitAssessment(t, base, first.Generation, &second)
	if !second.Restored {
		t.Fatalf("second life did not serve the persisted assessment: %+v", second)
	}
	if second.Generation != first.Generation || second.CorpusSize != first.CorpusSize {
		t.Fatalf("restored metadata diverged: %+v vs %+v", second, first)
	}
	stop(cancel, done)
}

func TestRunRejectsMissingCorpus(t *testing.T) {
	opts := testOpts("127.0.0.1:0")
	opts.Seed = 0
	opts.Corpus = "/nonexistent/corpus.jsonl"
	opts.debounce = time.Millisecond
	if err := run(context.Background(), opts); err == nil {
		t.Fatal("missing corpus accepted")
	}
}

// ingestPost POSTs one post on a monitored topic (#chiptuning) and
// requires it accepted.
func ingestPost(t *testing.T, base, id string) {
	t.Helper()
	body, _ := json.Marshal([]map[string]any{{
		"id":         id,
		"author":     "tester",
		"text":       "daemon #chiptuning ingest test",
		"created_at": time.Date(2023, 5, 1, 10, 0, 0, 0, time.UTC).Format(time.RFC3339),
		"region":     "EU",
		"metrics":    map[string]int{"views": 10},
	}})
	resp, err := http.Post(base+"/v1/posts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing struct {
		Added int `json:"added"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ing.Added != 1 {
		t.Fatalf("ingest status %d, added %d", resp.StatusCode, ing.Added)
	}
}

// mutateTenant applies a one-threat op batch to the tenant at version
// and requires it accepted.
func mutateTenant(t *testing.T, base, tenant string, version uint64) {
	t.Helper()
	ops, _ := json.Marshal(map[string]any{
		"expect_version": version,
		"ops": []map[string]any{{
			"op": "set_threat_table", "id": "TS-TAMPER",
			"table": map[string]any{
				"name":    "field-report",
				"ratings": map[string]string{"physical": "high", "local": "high", "adjacent": "low", "network": "very_low"},
			},
		}},
	})
	resp, err := http.Post(base+"/v1/tara/"+tenant, "application/json", bytes.NewReader(ops))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant mutation status %d", resp.StatusCode)
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type tenantProbe struct {
	Tenant       string `json:"tenant"`
	Version      uint64 `json:"version"`
	Generation   uint64 `json:"generation"`
	RatedThreats int    `json:"rated_threats"`
	TotalThreats int    `json:"total_threats"`
	RatingCalls  uint64 `json:"rating_calls"`
}

// waitTenant polls /v1/tara/{name} until the served assessment covers at
// least the given model version.
func waitTenant(t *testing.T, base, name string, minVersion uint64) tenantProbe {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/tara/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var probe tenantProbe
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if probe.Version >= minVersion {
				return probe
			}
		} else {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never reached version %d (last: %+v)", name, minVersion, probe)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func waitAssessment(t *testing.T, base string, minGeneration int, out any) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/assessment")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var probe struct {
				Generation int `json:"generation"`
			}
			if err := json.Unmarshal(body, &probe); err != nil {
				t.Fatal(err)
			}
			if probe.Generation >= minGeneration {
				if err := json.Unmarshal(body, out); err != nil {
					t.Fatal(err)
				}
				return
			}
		} else {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("assessment never reached generation %d", minGeneration)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestRunRejectsUnknownRegion(t *testing.T) {
	opts := testOpts("127.0.0.1:0")
	opts.region = "Europe"
	opts.debounce = time.Millisecond
	if err := run(context.Background(), opts); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestRunRejectsBadLogFlags(t *testing.T) {
	opts := testOpts("127.0.0.1:0")
	opts.LogLevel = "verbose"
	if err := run(context.Background(), opts); err == nil {
		t.Fatal("unknown log level accepted")
	}
	opts = testOpts("127.0.0.1:0")
	opts.LogFormat = "logfmt"
	if err := run(context.Background(), opts); err == nil {
		t.Fatal("unknown log format accepted")
	}
}

// TestDaemonObservabilityEndpoints boots a durable daemon with the TARA
// fleet and asserts the observability surface over the wire: the
// readiness gate opens only after the initial assessment and rating
// pass, responses carry request IDs, and /v1/metrics serves a
// Prometheus exposition covering every stage family — store, WAL,
// monitor, TARA and HTTP. With every trace sampled, it drives ingest,
// an assessment read and a tenant mutation, and requires every span
// name /v1/trace shows to have its psp_trace_* series: the span is each
// stage's only count and latency record.
func TestDaemonObservabilityEndpoints(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		opts := testOpts(addr)
		opts.DataDir = t.TempDir()
		opts.taraFleet = true
		opts.Pprof = true
		opts.TraceSample = 1
		done <- run(ctx, opts)
	}()
	base := "http://" + addr
	waitHealthy(t, base)

	// Readiness gate: eventually 200 (the daemon just booted, so allow
	// the initial assessment and rating pass to land).
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready (last status %d)", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Healthz mirrors readiness and carries the store detail.
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		t.Fatal("no request ID on response")
	}
	var health struct {
		Ready     bool     `json:"ready"`
		Durable   bool     `json:"durable"`
		WALFloors []uint64 `json:"wal_floors"`
		Shards    int      `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.Ready || !health.Durable || health.Shards != 4 || len(health.WALFloors) != 4 {
		t.Fatalf("healthz detail = %+v", health)
	}

	// Drive every stage: ingest (store.add, wal.append) triggers a
	// monitor delta run (monitor.flush, store.search), the assessment is
	// read over HTTP, and a tenant mutation re-rates (tara.rate).
	ingestPost(t, base, "obs-1")
	var assessment struct{}
	waitAssessment(t, base, 2, &assessment)
	ecm := waitTenant(t, base, "ECM", 2)
	mutateTenant(t, base, "ECM", ecm.Version)
	waitTenant(t, base, "ECM", ecm.Version+1)

	// Span names are collected before the exposition is read: a span
	// reaches its series before it reaches the ring. A span reaches the
	// ring only when it ends — the flush and rating spans after their
	// publication, a server span after its response — so poll for them.
	stages := []string{"store.add", "wal.append", "store.search", "monitor.flush", "tara.rate",
		"http.server /v1/posts", "http.server /v1/assessment", "http.server /v1/tara/{tenant}"}
	spanNames := map[string]bool{}
	missing := ""
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err = http.Get(base + "/v1/trace?limit=4096")
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, sp := range trace.Spans {
			spanNames[sp.Name] = true
		}
		missing = ""
		for _, stage := range stages {
			if !spanNames[stage] {
				missing = stage
				break
			}
		}
		if missing == "" || time.Now().After(deadline) {
			break
		}
	}
	if missing != "" {
		t.Fatalf("no %q span recorded; names: %v", missing, spanNames)
	}

	// The exposition covers every stage family with live values.
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := string(exposition)
	for _, want := range []string{
		`psp_trace_spans_total{span="store.add"}`,
		"psp_store_posts ",
		"psp_wal_appends_total",
		"psp_wal_fsync_seconds_count",
		"psp_monitor_generations_total",
		"psp_monitor_publish_seconds_bucket",
		"psp_tara_tenants",
		`psp_trace_spans_total{span="tara.rate"}`,
		`psp_http_requests_total{code="2xx",route="/v1/healthz"}`,
		`psp_http_request_seconds_bucket{route="/v1/readyz",le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	for name := range spanNames {
		for _, series := range []string{
			`psp_trace_spans_total{span="` + name + `"} `,
			`psp_trace_span_seconds_count{span="` + name + `"} `,
		} {
			if !strings.Contains(body, series) {
				t.Errorf("span %q has no series %s", name, series)
			}
		}
	}
	// Durable boot: the seed corpus went through the WAL, so appends and
	// fsyncs carry real values (not just registered families).
	if strings.Contains(body, "psp_wal_appends_total 0\n") {
		t.Fatal("WAL appends stayed zero on a durable boot")
	}

	// pprof is mounted when opted in.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exit error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
