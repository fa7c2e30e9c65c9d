package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	psp "github.com/psp-framework/psp"
)

// smokeSizes run every workload on small corpora with no warm-up, so a
// one-second pass still measures at least one restart cycle.
var smokeSizes = sizes{setups: 2, backendPosts: 2000, restartPosts: 2000, deltaPosts: 100}

// diagNames are the workload-specific figures each workload must print.
var diagNames = map[string][]string{
	"ingest-cold":      {"ingest_ack_p50_ms", "ingest_ack_p99_ms", "fresh_p50_ms", "fresh_p99_ms", "write_amp", "gen_late_p50_ms", "gen_late_max_ms", "error_rate"},
	"ingest-hot":       {"ingest_ack_p50_ms", "fresh_p50_ms", "tara_fresh_p50_ms", "tara_fresh_p90_ms", "tara_rated_p50_ms", "error_rate"},
	"search-federated": {"search_page_p50_ms", "search_page_p99_ms", "listing_p50_ms", "error_rate"},
	"restart-warm":     {"warm_open_p50_ms", "warm_open_max_ms", "restart_fresh_p50_ms", "write_amp", "warm_ratio", "error_rate"},
}

var e2eUnits = map[string]string{"setup_s": "s", "response_p50_ms": "ms", "visible_p50_ms": "ms", "heap_live_mb": "MB"}

// TestWorkloadsSmoke runs each workload for about a second, untraced
// and traced, and checks that every check passes and every named metric
// prints with its unit, the JSON summary last.
func TestWorkloadsSmoke(t *testing.T) {
	layerUnits := map[string]string{}
	for _, l := range layerNames {
		layerUnits[l.name] = l.unit
	}
	for _, wl := range workloads {
		for _, trace := range []int{0, 1} {
			wl, trace := wl, trace
			t.Run(wl.name+map[int]string{0: "/untraced", 1: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				o := options{workload: wl.name, seed: 3, seconds: 1, trace: trace, data: t.TempDir()}
				if code := run(context.Background(), &out, o, smokeSizes); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				printed := map[string]string{}
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) == 4 {
						printed[f[1]] = f[3]
					}
				}
				want := map[string]string{}
				for name, unit := range e2eUnits {
					want[name] = unit
				}
				for _, name := range diagNames[wl.name] {
					if _, ok := printed[name]; !ok {
						t.Errorf("diagnostic %s not printed", name)
					}
				}
				jsonWant := e2eUnits
				if trace == 1 {
					jsonWant = layerUnits
					for name, unit := range layerUnits {
						want[name] = unit
					}
				}
				for name, unit := range want {
					if got, ok := printed[name]; !ok || got != unit {
						t.Errorf("metric %s printed with unit %q, want %q", name, got, unit)
					}
				}

				var summary struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
					t.Fatalf("last line is not the JSON summary: %v\n%s", err, out.String())
				}
				if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
					t.Fatalf("summary correct=%v attempted=%d failed=%d:\n%s", summary.Correct, summary.Attempted, summary.Failed, out.String())
				}
				if len(summary.Metrics) != len(jsonWant) {
					t.Errorf("summary has %d metrics, want %d", len(summary.Metrics), len(jsonWant))
				}
				for name, unit := range jsonWant {
					if m, ok := summary.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("summary metric %s = %+v, want unit %q", name, m, unit)
					}
				}
			})
		}
	}
}

// TestSelfTimes pins the self-time arithmetic the per-layer figures and
// the stage-sum check rest on: nested stages partition their root, a
// parallel fan-out counts once, and a child starting after its parent
// ended is an asynchronous link, not a stage.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent string, from, to int) *psp.Span {
		return &psp.Span{TraceID: "t", SpanID: id, ParentID: parent, Start: at(from), Duration: time.Duration(to-from) * time.Millisecond}
	}
	root := span("r", "", 0, 100)
	server := span("s", "r", 10, 90)
	add := span("a", "s", 20, 80)
	wal := span("w", "a", 30, 70)
	fanA := span("fa", "r", 5, 8)
	fanB := span("fb", "r", 6, 9)
	flush := span("f", "a", 120, 200)
	x := index([]*psp.Span{root, server, add, wal, fanA, fanB, flush})

	for _, c := range []struct {
		s    *psp.Span
		self time.Duration
	}{
		{root, 16 * time.Millisecond}, // 100 - [5,9) - [10,90)
		{server, 20 * time.Millisecond},
		{add, 20 * time.Millisecond}, // the flush starts after add ends
		{wal, 40 * time.Millisecond},
	} {
		if got := x.self(c.s); got != c.self {
			t.Errorf("self(%s) = %v, want %v", c.s.SpanID, got, c.self)
		}
	}
	// The fan-out overlaps for 2 ms, so the stage sum overshoots the
	// root by exactly that much; a sequential trace sums exactly.
	if got := x.treeSelf(root); got != root.Duration+2*time.Millisecond {
		t.Errorf("treeSelf(root) = %v, want %v", got, root.Duration+2*time.Millisecond)
	}
	if got := x.treeSelf(server); got != server.Duration {
		t.Errorf("treeSelf(server) = %v, want %v", got, server.Duration)
	}
}
