// Command pspd is the PSP continuous-monitoring daemon: it keeps a live
// social corpus, tails its changefeed, and re-runs the dirty slice of
// the Fig. 7 social workflow as posts arrive — the ongoing risk
// monitoring ISO/SAE 21434 Clause 8 requires, served over HTTP:
//
//	POST /v1/posts      ingest a JSON post or array of posts
//	GET  /v1/assessment current cached SAI/TARA result + freshness metadata
//	                    (supports ETag / If-None-Match conditional polling)
//	GET  /v1/healthz    liveness (always 200): corpus size, generation,
//	                    readiness detail, WAL floors, changefeed backlog
//	GET  /v1/readyz     readiness: 503 until the initial assessment and
//	                    the initial TARA rating pass have landed
//	GET  /v1/metrics    Prometheus text exposition
//
// With -tara (default on) the daemon also serves assessment-as-a-service
// for a multi-tenant TARA fleet — one tenant per ECU of the reference
// architecture, with topology-derived attack paths:
//
//	GET    /v1/tara           tenant directory
//	GET    /v1/tara/{tenant}  current assessment (ETag / If-None-Match)
//	PUT    /v1/tara/{tenant}  create a tenant from an analysis document
//	POST   /v1/tara/{tenant}  apply mutation ops (optimistic concurrency)
//	DELETE /v1/tara/{tenant}  remove the tenant
//
// Tenant mutations re-rate only the dirty threats of the mutated tenant,
// and the social monitor's threat tunings flow into the tenants holding
// the monitored threat scenarios (TS-ECM-01 on the ECM tenant,
// TS-IMMO-01 on the BCM tenant).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests (and, with -data-dir, flushing a final snapshot).
//
// Usage:
//
//	pspd [-addr :8484] [-seed 42] [-corpus snapshot.jsonl]
//	     [-data-dir /var/lib/pspd]
//	     [-application excavator] [-region EU]
//	     [-debounce 200ms] [-drain 5s] [-concurrency 0] [-shards 0]
//	     [-trace-sample 0.1] [-slow-ms 250]
//	     [-log-level info] [-log-format text] [-pprof]
//
// -corpus seeds the store from a JSON Lines snapshot instead of the
// generated reference corpus; -application and -region scope the
// monitored workflow like the psp CLI's sai command. -shards sets the
// store's shard count (0 = library default): more shards let
// concurrent ingest batches commit in parallel and shrink every lock
// hold to one stripe's share of the index, without changing any
// result.
//
// -data-dir makes the daemon durable: the store runs on a per-stripe
// write-ahead log with background snapshot compaction (ingest
// acknowledges only after its batch is fsync'd), and the monitor
// persists its assessment, result cache (listings and per-post
// analysis) and changefeed cursor to <data-dir>/monitor.state after
// each publication that re-ran the workflow, and at stop. A restarted
// pspd recovers the corpus from snapshot + WAL tail, serves its
// previous assessment immediately (same generation, same ETag) and
// catches up with one incremental delta run instead of a cold full
// workflow. -seed/-corpus seed only
// an empty data directory; afterwards the directory is authoritative
// (including its shard count — -shards must agree or stay 0).
//
// # Operating pspd
//
// Logs are structured (log/slog): -log-level picks the floor
// (debug/info/warn/error) and -log-format selects human-readable text
// or one-JSON-object-per-line for log shippers. Every HTTP response
// carries an X-Request-ID header (inbound IDs are honored, absent ones
// minted) and every request-scoped log line carries the same
// request_id attribute, so a failed ingest or tenant mutation can be
// correlated across client and daemon.
//
// GET /v1/metrics exposes Prometheus families for every stage of the
// pipeline:
//
//	psp_trace_*    per-stage span counts, errors and latency by span
//	               name: store.add, store.search, wal.append,
//	               monitor.flush, tara.rate, http.server <route>
//	psp_store_*    posts inserted, changefeed backlog, compactions,
//	               recovery
//	psp_wal_*      append/fsync latency, group-commit coalescing
//	               (records per fsync), segment rolls
//	psp_monitor_*  assessment generation, publish latency (first batch
//	               of a flush window to publication: ~0 wait for an
//	               isolated delta or one that owes no work, the
//	               debounce for a burst), delta
//	               sizes, error age
//	psp_tara_*     fleet size, dirty backlog, cumulative engine rating
//	               calls, threats re-rated per pass
//	psp_http_*     per-route request counts by status class and latency
//
// A stage's psp_trace_* series appear at its first span, sampled or
// not; the span is each stage's only count, error and latency record.
//
// Readiness and liveness are distinct: /v1/healthz always answers 200
// while the process is up (point liveness probes here), and
// /v1/readyz answers 503 with the pending reasons until the daemon can
// actually serve assessments (point readiness gates here — a warm
// restart is ready as soon as its restored assessment publishes).
// Every request is traced end to end: the HTTP middleware continues an
// inbound W3C traceparent header (or starts a fresh trace), and spans
// from every stage the request touches — server handling, store search
// and ingest, WAL group commits, monitor delta runs, per-tenant TARA
// re-rates — share its trace ID, each carrying cost-attribution
// attributes (postings scanned, fsync group sizes, dirty threats).
// -trace-sample sets the probabilistic keep rate for healthy traces
// (0 records only errors, slow spans and degraded pages; 1 records
// everything); -slow-ms sets the latency above which a span is always
// kept and logged. GET /v1/trace serves the recorded spans as JSON —
// newest first, or one coherent trace via ?trace_id=. /v1/metrics
// also carries psp_build_info and process uptime.
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ for
// live profiling; it is off by default because profiles are expensive
// and the endpoint has no auth.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	psp "github.com/psp-framework/psp"
	"github.com/psp-framework/psp/internal/daemon"
)

// options carries the daemon configuration from flags to run.
type options struct {
	daemon.Flags
	addr        string
	application string
	region      string
	debounce    time.Duration
	drain       time.Duration
	concurrency int
	taraFleet   bool
}

func main() {
	var opts options
	opts.Register(flag.CommandLine)
	flag.StringVar(&opts.addr, "addr", ":8484", "listen address")
	flag.StringVar(&opts.application, "application", "", "target application filter (e.g. excavator)")
	flag.StringVar(&opts.region, "region", "", "region filter (EU, NA, APAC, OTHER)")
	flag.DurationVar(&opts.debounce, "debounce", 200*time.Millisecond, "quiet period that ends a burst before re-assessment; a delta arriving after this long idle is assessed at once, and one that owes no work publishes at once regardless")
	flag.DurationVar(&opts.drain, "drain", 5*time.Second, "shutdown drain timeout")
	flag.IntVar(&opts.concurrency, "concurrency", 0, "workflow query fan-out (0 = GOMAXPROCS)")
	flag.BoolVar(&opts.taraFleet, "tara", true, "serve the multi-tenant TARA fleet on /v1/tara")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pspd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts options) error {
	base, err := daemon.Boot(opts.Flags)
	if err != nil {
		return err
	}
	// The final flush pairs with the graceful HTTP drain: once the
	// server and monitor stopped, the WAL tail compacts into a snapshot
	// so the next start recovers without replay.
	defer base.Close()
	store, logger := base.Store, base.Logger
	var state psp.MonitorStateStore
	if opts.DataDir != "" {
		state = psp.NewMonitorFileState(filepath.Join(opts.DataDir, "monitor.state"))
	}
	m, fw, err := newMonitor(store, state, opts, psp.NewMonitorMetrics(base.Registry), base.Tracer, logger)
	if err != nil {
		return err
	}
	var tm *psp.TARAMonitor
	if opts.taraFleet {
		tm, err = newTARAFleet(fw, m, opts.debounce, psp.NewTARAMonitorMetrics(base.Registry), base.Tracer, logger)
		if err != nil {
			return err
		}
	}

	// The monitor and server share a context: a monitor failure (e.g.
	// the initial assessment erroring against a remote backend) tears
	// the server down instead of leaving a daemon that serves 503s
	// forever, and SIGINT/SIGTERM stops both.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	monErr := make(chan error, 1)
	go func() {
		err := m.Run(runCtx)
		monErr <- err
		if err != nil {
			stopRun()
		}
	}()
	api := psp.NewMonitorAPI(m).WithObservability(base.Registry, logger).WithTracing(base.Tracer)
	if opts.Pprof {
		api.WithPprof()
	}
	if tm != nil {
		// The TARA loop only stops on cancellation; rating failures are
		// retried with backoff and surfaced per-tenant, so its exit needs
		// no teardown of its own.
		go func() { _ = tm.Run(runCtx) }()
		api.WithTARA(tm)
	}

	persistence := "in-memory"
	if opts.DataDir != "" {
		persistence = fmt.Sprintf("durable at %s (recovered=%v)", opts.DataDir, base.Recovered)
	}
	logger.Info("monitoring",
		"posts", store.Len(), "addr", opts.addr, "seed", opts.Seed,
		"debounce", opts.debounce, "shards", store.Shards(), "persistence", persistence)
	if tm != nil {
		logger.Info("serving TARA fleet", "tenants", tm.Registry().Len())
	}
	if err := psp.ListenAndServeGraceful(runCtx, daemon.NewServer(opts.addr, api.Handler()), opts.drain); err != nil {
		return err
	}
	// Surface the monitor's exit reason: a cancellation-driven stop is
	// a clean shutdown, anything else is the root cause.
	if err := <-monErr; err != nil && ctx.Err() == nil {
		return err
	}
	logger.Info("shut down cleanly")
	return nil
}

// newMonitor wires the framework and monitor over the store; the
// framework is returned too, so the TARA fleet can share its worker
// pool.
func newMonitor(store *psp.SocialStore, state psp.MonitorStateStore, opts options, met *psp.MonitorMetrics, tracer *psp.Tracer, logger *slog.Logger) (*psp.Monitor, *psp.Framework, error) {
	// Validate the region eagerly: a typo would otherwise make a
	// healthy-looking daemon monitor an empty corpus forever.
	switch psp.Region(opts.region) {
	case "", psp.RegionEurope, psp.RegionNorthAmerica, psp.RegionAsiaPacific, psp.RegionOther:
	default:
		return nil, nil, fmt.Errorf("unknown region %q (valid: %s, %s, %s, %s)",
			opts.region, psp.RegionEurope, psp.RegionNorthAmerica, psp.RegionAsiaPacific, psp.RegionOther)
	}
	fw, err := psp.New(psp.Config{Searcher: store, Concurrency: opts.concurrency})
	if err != nil {
		return nil, nil, err
	}
	m, err := psp.NewMonitor(psp.MonitorConfig{
		Framework: fw,
		Store:     store,
		Input: psp.SocialInput{
			Application: opts.application,
			Region:      psp.Region(opts.region),
			Threats:     defaultThreats(),
		},
		Debounce: opts.debounce,
		State:    state,
		Metrics:  met,
		Tracer:   tracer,
		Logger:   logger,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, fw, nil
}

// newTARAFleet derives one TARA tenant per reference-architecture ECU,
// attaches the socially monitored threat scenarios to the tenants owning
// the affected units, and wires the fleet's rating loop to the social
// monitor's tuning stream.
func newTARAFleet(fw *psp.Framework, m *psp.Monitor, debounce time.Duration, met *psp.TARAMonitorMetrics, tracer *psp.Tracer, logger *slog.Logger) (*psp.TARAMonitor, error) {
	top, err := psp.ReferenceArchitecture()
	if err != nil {
		return nil, err
	}
	reg, err := psp.DeriveTARARegistry(top)
	if err != nil {
		return nil, err
	}
	attach := []struct {
		tenant string
		threat *psp.ThreatScenario
	}{
		{"ECM", defaultThreats()[0]}, // TS-ECM-01
		{"BCM", defaultThreats()[1]}, // TS-IMMO-01
	}
	for _, at := range attach {
		ten, ok := reg.Get(at.tenant)
		if !ok {
			return nil, fmt.Errorf("tara fleet: reference architecture has no %s tenant", at.tenant)
		}
		th := *at.threat
		// Re-anchor the scenario on the tenant's derived tampering
		// damage; its monitored keywords stay as declared.
		th.DamageIDs = []string{"DS-TAMPER"}
		if _, err := ten.Mutate(func(a *psp.Analysis) (bool, error) {
			if err := a.UpsertThreat(&th); err != nil {
				return false, err
			}
			if _, err := psp.SyncTARAPaths(top, a, at.tenant); err != nil {
				return false, err
			}
			return true, nil
		}); err != nil {
			return nil, fmt.Errorf("tara fleet: attach %s to %s: %w", th.ID, at.tenant, err)
		}
	}
	return psp.NewTARAMonitor(psp.TARAMonitorConfig{
		Framework: fw,
		Registry:  reg,
		Social:    m,
		Debounce:  debounce,
		Metrics:   met,
		Tracer:    tracer,
		Logger:    logger,
	})
}

// defaultThreats is the monitored threat scenario list: the paper's
// running ECM reprogramming case plus the outsider immobilizer-bypass
// contrast. A product security team would supply its own TARA scenarios
// here.
func defaultThreats() []*psp.ThreatScenario {
	return []*psp.ThreatScenario{
		{
			ID: "TS-ECM-01", Name: "ECM reprogramming",
			Description: "Owner-approved reflash of ECM calibration",
			DamageIDs:   []string{"DS-01"},
			Property:    psp.PropertyIntegrity,
			STRIDE:      psp.Tampering,
			Profiles:    []psp.AttackerProfile{psp.ProfileInsider, psp.ProfileRational, psp.ProfileLocal},
			Vector:      psp.VectorPhysical,
			Keywords:    []string{"chiptuning", "ecutune", "remap", "stage1"},
		},
		{
			ID: "TS-IMMO-01", Name: "Immobilizer bypass",
			Description: "Theft via key-fob relay or cloning",
			DamageIDs:   []string{"DS-02"},
			Property:    psp.PropertyAuthenticity,
			STRIDE:      psp.Spoofing,
			Profiles:    []psp.AttackerProfile{psp.ProfileOutsider},
			Vector:      psp.VectorAdjacent,
			Keywords:    []string{"keyfobhack", "relayattack"},
		},
	}
}
