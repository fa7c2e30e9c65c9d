// Chaos tests: the monitor converging through a flapping platform, and
// the ingest API mapping a degraded (read-only) store onto 503 +
// Retry-After with the health surfaces reporting it.
package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/fault"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// TestChaosMonitorConvergesThroughFlap: a platform outage mid-stream
// must not poison the monitor — the stale assessment keeps serving and
// the failure is reported, then the built-in retry converges once the
// platform heals, without any extra ingest.
func TestChaosMonitorConvergesThroughFlap(t *testing.T) {
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{FailFrom: 1})
	inj.Disable() // healthy until the flap

	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	m, err := New(Config{
		Framework: fw,
		Store:     store,
		Searcher:  social.WithFault(store, inj),
		Input:     in,
		Debounce:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("monitor did not stop after cancellation")
		}
	}()

	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	first, err := m.WaitFor(waitCtx, 1)
	if err != nil {
		t.Fatalf("initial assessment: %v", err)
	}

	// Platform goes down; a delta that invalidates cached listings
	// arrives, so the re-assessment must hit the (now failing) platform.
	inj.Enable()
	var delta []*social.Post
	for i := 0; i < 10; i++ {
		delta = append(delta, deltaPost(i, "fresh #chiptuning stage1 remap"))
	}
	if err := store.Add(delta...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for m.LastError() == nil {
		if time.Now().After(deadline) {
			t.Fatal("re-assessment never failed despite the platform outage")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stale-but-valid picture keeps serving.
	if cur := m.Assessment(); cur == nil || cur.Generation != first.Generation {
		t.Fatalf("assessment during outage = %+v, want generation %d intact", cur, first.Generation)
	}

	// Platform heals: the monitor's own retry (no new ingest) converges.
	inj.Disable()
	cur, err := m.WaitFor(waitCtx, first.Generation+1)
	if err != nil {
		t.Fatalf("monitor did not converge after the platform healed: %v", err)
	}
	if m.LastError() != nil {
		t.Fatalf("LastError after convergence = %v, want nil", m.LastError())
	}
	if !cur.Recomputed {
		t.Fatalf("converged assessment was not recomputed: %+v", cur)
	}
	if cur.Ingested < len(delta) {
		t.Fatalf("converged assessment saw %d ingested posts, want >= %d", cur.Ingested, len(delta))
	}
}

// TestChaosIngestDegraded503: once a persistent WAL failure flips the
// store read-only, POST /v1/posts must answer 503 + Retry-After, and
// healthz/readyz must surface the degradation.
func TestChaosIngestDegraded503(t *testing.T) {
	fs := &fault.FS{Sync: fault.New(fault.Config{FailFrom: 3})}
	store, err := social.OpenStoreDir(t.TempDir(), social.DurableOptions{
		Shards: 1, CompactEvery: -1, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Framework: fw,
		Store:     store,
		Input:     core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	post := func(i int) *http.Response {
		t.Helper()
		body, err := json.Marshal([]*social.Post{{
			ID:        fmt.Sprintf("chaos-%03d", i),
			Author:    "bot",
			Text:      "ingest under a dying disk",
			CreatedAt: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i),
			Region:    social.RegionEurope,
		}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/posts", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Drive ingest until the injected fsync failure degrades the store,
	// then once more for the fast-path refusal.
	degradedAt := -1
	for i := 0; i < 20; i++ {
		if resp := post(i); resp.StatusCode != http.StatusAccepted {
			degradedAt = i
			break
		}
	}
	if degradedAt < 1 {
		t.Fatalf("ingest never failed (degradedAt=%d); the fault schedule is vacuous", degradedAt)
	}
	resp := post(100)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want \"30\"", got)
	}

	// Health surfaces: healthz reports the degradation, readyz gates.
	hr, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Degraded      bool   `json:"degraded"`
		DegradedCause string `json:"degraded_cause"`
		Ready         bool   `json:"ready"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !health.Degraded || health.DegradedCause == "" {
		t.Fatalf("healthz = %+v, want degraded with a cause", health)
	}
	if health.Ready {
		t.Fatal("healthz reports ready despite degradation")
	}

	rr, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rbody := new(bytes.Buffer)
	rbody.ReadFrom(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503", rr.StatusCode)
	}
	if !strings.Contains(rbody.String(), "degraded") {
		t.Fatalf("readyz reasons = %s, want a degraded reason", rbody.String())
	}
}
