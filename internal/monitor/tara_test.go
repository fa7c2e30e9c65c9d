package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// startTARAMonitor runs a TARA monitor over the registry until the test
// ends and waits for every pre-registered tenant's first assessment.
func startTARAMonitor(t *testing.T, reg *tara.Registry, soc *Monitor) *TARAMonitor {
	t.Helper()
	return runTARAMonitor(t, TARAConfig{Registry: reg, Social: soc, Debounce: 10 * time.Millisecond})
}

// runTARAMonitor is startTARAMonitor for any configuration; a nil
// Framework gets a fresh one.
func runTARAMonitor(t *testing.T, cfg TARAConfig) *TARAMonitor {
	t.Helper()
	if cfg.Framework == nil {
		fw, err := core.New(core.Config{Concurrency: 4})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Framework = fw
	}
	tm, err := NewTARAMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tm.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("tara monitor did not stop after cancellation")
		}
	})
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	for _, name := range cfg.Registry.Names() {
		if _, err := tm.WaitForTenant(waitCtx, name, 1); err != nil {
			t.Fatalf("initial assessment of tenant %s: %v", name, err)
		}
	}
	return tm
}

func genTenantFleet(t *testing.T, reg *tara.Registry, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a, err := tara.GenerateAnalysis(tara.GenSpec{
			Name:   fmt.Sprintf("variant-%02d", i),
			Assets: 6, Damages: 8, Threats: 10, PathsPerThreat: 1, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Create(fmt.Sprintf("t%02d", i), a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTARAMonitorReratesOnlyMutatedTenant is the multi-tenant acceptance
// test: across a 12-tenant fleet, a mutation to one tenant re-rates only
// that tenant's dirty threats — every other tenant keeps its published
// assessment untouched, and the mutated tenant's rating-call counter
// advances by exactly the dirty count.
func TestTARAMonitorReratesOnlyMutatedTenant(t *testing.T) {
	reg := tara.NewRegistry()
	genTenantFleet(t, reg, 12)
	tm := startTARAMonitor(t, reg, nil)

	before := map[string]*tara.TenantAssessment{}
	for _, name := range reg.Names() {
		ten, _ := reg.Get(name)
		cur := ten.Assessment()
		if cur == nil || cur.RatedThreats != cur.TotalThreats {
			t.Fatalf("tenant %s initial assessment not a full pass: %+v", name, cur)
		}
		before[name] = cur
	}

	// Mutate one tenant: a hot override on a single threat.
	target, _ := reg.Get("t05")
	hot, err := tara.NewVectorTable("hot", map[tara.AttackVector]tara.FeasibilityRating{
		tara.VectorPhysical: tara.FeasibilityHigh, tara.VectorLocal: tara.FeasibilityHigh,
		tara.VectorAdjacent: tara.FeasibilityHigh, tara.VectorNetwork: tara.FeasibilityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	var threatID string
	if _, err := target.Mutate(func(a *tara.Analysis) (bool, error) {
		threatID = a.Threats[3].ID
		return a.SetThreatTable(threatID, hot)
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cur, err := tm.WaitForTenant(ctx, "t05", before["t05"].Generation+1)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != before["t05"].Version+1 {
		t.Fatalf("version = %d, want %d", cur.Version, before["t05"].Version+1)
	}
	if cur.RatedThreats != 1 {
		t.Fatalf("re-rated %d threats, want 1 (only %s was dirty)", cur.RatedThreats, threatID)
	}
	if got := cur.RatingCalls - before["t05"].RatingCalls; got != 1 {
		t.Fatalf("rating calls advanced by %d, want 1", got)
	}
	if cur.TotalThreats != before["t05"].TotalThreats {
		t.Fatalf("total threats changed: %d → %d", before["t05"].TotalThreats, cur.TotalThreats)
	}

	// Every other tenant's published assessment is the same snapshot:
	// not re-rated, not even re-published.
	for _, name := range reg.Names() {
		if name == "t05" {
			continue
		}
		ten, _ := reg.Get(name)
		if got := ten.Assessment(); got != before[name] {
			t.Fatalf("tenant %s was re-published: generation %d → %d, calls %d → %d",
				name, before[name].Generation, got.Generation, before[name].RatingCalls, got.RatingCalls)
		}
	}
}

// TestTARAMonitorSocialBridge checks the feed-to-fleet path: when the
// social monitor publishes threat tunings, only tenants containing the
// tuned threat are mutated and re-rated.
func TestTARAMonitorSocialBridge(t *testing.T) {
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	soc := startMonitor(t, store, core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}})
	if res := soc.Assessment().Result; len(res.Tunings) == 0 {
		t.Fatal("social assessment published no tunings; fixture corpus changed?")
	}

	// Tenant "ecm" contains the socially monitored threat; "plain" does
	// not and must stay clean.
	reg := tara.NewRegistry()
	ecm, err := tara.GenerateAnalysis(tara.GenSpec{
		Name: "ecm", Assets: 4, Damages: 5, Threats: 6, PathsPerThreat: 1, Seed: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ecmThreat()
	th.DamageIDs = []string{ecm.Damages[0].ID}
	th.AssetIDs = nil
	if err := ecm.UpsertThreat(th); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("ecm", ecm); err != nil {
		t.Fatal(err)
	}
	plain, err := tara.GenerateAnalysis(tara.GenSpec{
		Name: "plain", Assets: 4, Damages: 5, Threats: 6, PathsPerThreat: 1, Seed: 501,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("plain", plain); err != nil {
		t.Fatal(err)
	}
	tm := startTARAMonitor(t, reg, soc)

	// The tuning lands as a version-2 mutation on the ecm tenant; the
	// bridge may have applied it before or after the initial pass, so
	// poll for the assessment that covers version ≥ 2.
	ecmTen, _ := reg.Get("ecm")
	deadline := time.Now().Add(30 * time.Second)
	var cur *tara.TenantAssessment
	for {
		cur = ecmTen.Assessment()
		if cur != nil && cur.Version >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ecm tenant never re-rated from social tunings (last: %+v, lastErr: %v)", cur, tm.LastError())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cur.RatedThreats >= cur.TotalThreats && cur.Generation > 1 {
		t.Fatalf("tuning pass re-rated %d/%d threats, want an incremental pass", cur.RatedThreats, cur.TotalThreats)
	}

	plainTen, _ := reg.Get("plain")
	if got := plainTen.Assessment(); got.Version != 1 {
		t.Fatalf("tenant without the monitored threat was mutated to version %d", got.Version)
	}
	if err := tm.LastError(); err != nil {
		t.Fatalf("last error: %v", err)
	}
}

// TestTARAAPIEndpoints exercises the /v1/tara surface end to end:
// directory, conditional GET, optimistic-concurrency mutation with ETag
// advance within a debounce interval, create, delete.
func TestTARAAPIEndpoints(t *testing.T) {
	store, err := social.DefaultStore(7)
	if err != nil {
		t.Fatal(err)
	}
	m := startMonitor(t, store, core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}})
	reg := tara.NewRegistry()
	genTenantFleet(t, reg, 1)
	tm := startTARAMonitor(t, reg, nil)

	srv := httptest.NewServer(NewAPI(m).WithTARA(tm).Handler())
	defer srv.Close()

	// Directory.
	var dir struct {
		Tenants []struct {
			Tenant  string `json:"tenant"`
			Version uint64 `json:"version"`
		} `json:"tenants"`
	}
	getJSON(t, srv.URL+"/v1/tara", http.StatusOK, &dir)
	if len(dir.Tenants) != 1 || dir.Tenants[0].Tenant != "t00" {
		t.Fatalf("directory = %+v", dir)
	}

	// Conditional GET.
	res, err := http.Get(srv.URL + "/v1/tara/t00")
	if err != nil {
		t.Fatal(err)
	}
	var got taraAssessmentResponse
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	etag := res.Header.Get("ETag")
	if res.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("GET tenant: status %d etag %q", res.StatusCode, etag)
	}
	if got.Version != 1 || got.TotalThreats != 10 || len(got.Results) != 10 {
		t.Fatalf("assessment = %+v", got)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/tara/t00", nil)
	req.Header.Set("If-None-Match", etag)
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: status %d, want 304", res2.StatusCode)
	}

	// Stale optimistic-concurrency token → 409, version untouched.
	ops := []tara.Op{{Kind: tara.OpUpsertAsset, Asset: &tara.Asset{
		ID: "A-NEW", Name: "aftermarket dongle",
		Properties: []tara.SecurityProperty{tara.PropertyIntegrity},
	}}}
	opsBody, err := json.Marshal(struct {
		ExpectVersion uint64    `json:"expect_version"`
		Ops           []tara.Op `json:"ops"`
	}{ExpectVersion: 99, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := http.Post(srv.URL+"/v1/tara/t00", "application/json", bytes.NewReader(opsBody))
	if err != nil {
		t.Fatal(err)
	}
	res3.Body.Close()
	if res3.StatusCode != http.StatusConflict {
		t.Fatalf("stale POST: status %d, want 409", res3.StatusCode)
	}

	// Valid mutation at the current version → 200 and, within a
	// debounce interval, a fresh assessment under a new ETag.
	opsBody, _ = json.Marshal(struct {
		ExpectVersion uint64    `json:"expect_version"`
		Ops           []tara.Op `json:"ops"`
	}{ExpectVersion: 1, Ops: ops})
	var mres taraMutateResponse
	res4, err := http.Post(srv.URL+"/v1/tara/t00", "application/json", bytes.NewReader(opsBody))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res4.Body).Decode(&mres); err != nil {
		t.Fatal(err)
	}
	res4.Body.Close()
	if res4.StatusCode != http.StatusOK || mres.Version != 2 || mres.Applied != 1 {
		t.Fatalf("POST ops: status %d body %+v", res4.StatusCode, mres)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tm.WaitForTenant(ctx, "t00", got.Generation+1); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/tara/t00", nil)
	req.Header.Set("If-None-Match", etag)
	res5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var fresh taraAssessmentResponse
	if err := json.NewDecoder(res5.Body).Decode(&fresh); err != nil {
		t.Fatal(err)
	}
	res5.Body.Close()
	if res5.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation GET: status %d, want 200 (ETag must advance)", res5.StatusCode)
	}
	if res5.Header.Get("ETag") == etag {
		t.Fatal("ETag did not advance after mutation")
	}
	if fresh.Version != 2 {
		t.Fatalf("fresh assessment at version %d, want 2", fresh.Version)
	}

	// Create a tenant over the wire, wait for its rating, delete it.
	newA, err := tara.GenerateAnalysis(tara.GenSpec{
		Name: "loader", Assets: 3, Damages: 3, Threats: 4, PathsPerThreat: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := newA.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/tara/loader", &doc)
	res6, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res6.Body.Close()
	if res6.StatusCode != http.StatusCreated {
		t.Fatalf("PUT create: status %d, want 201", res6.StatusCode)
	}
	if _, err := tm.WaitForTenant(ctx, "loader", 1); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/tara/loader", nil)
	res7, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res7.Body.Close()
	if res7.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", res7.StatusCode)
	}
	res8, err := http.Get(srv.URL + "/v1/tara/loader")
	if err != nil {
		t.Fatal(err)
	}
	res8.Body.Close()
	if res8.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted tenant: status %d, want 404", res8.StatusCode)
	}
}
