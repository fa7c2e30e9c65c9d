// Command sociald serves the synthetic social-media corpus over the
// HTTP search API, standing in for the remote social platform the PSP
// paper's prototype queried. Point `psp sai -server http://...` or a
// custom psp.SocialClient at it.
//
// Usage:
//
//	sociald [-addr :8384] [-seed 42] [-rate 50] [-burst 100]
//	        [-corpus snapshot.jsonl] [-dump snapshot.jsonl]
//	        [-data-dir /var/lib/sociald] [-shards 0]
//	        [-trace-sample 0.1] [-slow-ms 250]
//	        [-log-level info] [-log-format text] [-pprof]
//
// -corpus loads a JSON Lines snapshot instead of generating the
// reference corpus; -dump writes the served corpus to a snapshot
// (atomically: temp file, fsync, rename) and exits. -shards sets the
// store's shard count (0 = library default) so concurrent search
// traffic and ingest spread across locks; results are identical at any
// setting.
//
// -data-dir runs the store on a per-stripe write-ahead log with
// snapshot compaction: restarts recover the corpus instead of
// regenerating it, and SIGTERM flushes a final snapshot. -seed/-corpus
// seed only an empty data directory.
//
// Logs are structured (log/slog; -log-level, -log-format json for log
// shippers). GET /v1/metrics serves a Prometheus exposition of the
// store (psp_store_*, and psp_wal_* when durable), the search API
// (psp_http_*, routes /v2/search, /v2/healthz and /v2/other for every
// other path), per-stage span counts, errors and latency (psp_trace_*,
// the only per-call record of store.search and store.add; a stage's
// series appear at its first span) and psp_build_info; every response
// carries an X-Request-ID header. Requests are traced: the
// middleware continues an inbound W3C traceparent header (as sent by a
// federated pspd), so sociald's server and store spans join the
// caller's distributed trace; GET /v1/trace serves the recorded spans
// (-trace-sample sets the keep rate for healthy traces, -slow-ms the
// always-keep latency bar). -pprof mounts net/http/pprof under
// /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	psp "github.com/psp-framework/psp"
	"github.com/psp-framework/psp/internal/daemon"
)

// options carries the daemon configuration from flags to run.
type options struct {
	daemon.Flags
	addr  string
	rate  float64
	burst int
	dump  string
}

func main() {
	var opts options
	opts.Register(flag.CommandLine)
	flag.StringVar(&opts.addr, "addr", ":8384", "listen address")
	flag.Float64Var(&opts.rate, "rate", 50, "requests per second refill rate (0 disables limiting)")
	flag.IntVar(&opts.burst, "burst", 100, "rate limiter burst capacity")
	flag.StringVar(&opts.dump, "dump", "", "write the corpus to a JSON Lines snapshot and exit")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "sociald:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts options) error {
	base, err := daemon.Boot(opts.Flags)
	if err != nil {
		return err
	}
	defer base.Close()
	store, logger := base.Store, base.Logger
	if opts.dump != "" {
		return dumpCorpus(store, opts.Seed, opts.dump, logger)
	}
	var limiter *psp.RateLimiter
	if opts.rate > 0 {
		limiter = psp.NewRateLimiter(opts.burst, opts.rate)
	}

	httpMet := psp.NewHTTPMetrics(base.Registry, logger).WithTracer(base.Tracer)
	mux := http.NewServeMux()
	mux.Handle("/v2/", httpMet.Instrument(routeOf, psp.NewSocialServer(store, limiter).Handler()))
	mux.Handle("/v1/metrics", psp.MetricsHandler(base.Registry))
	mux.Handle("/v1/trace", psp.TraceHandler(base.Tracer))
	if opts.Pprof {
		mux.Handle("/debug/pprof/", psp.PprofHandler())
	}

	logger.Info("serving",
		"posts", store.Len(), "addr", opts.addr, "seed", opts.Seed, "shards", store.Shards())
	// Drain in-flight searches on SIGINT/SIGTERM instead of dropping
	// them mid-response; the helper is shared with pspd.
	if err := psp.ListenAndServeGraceful(ctx, daemon.NewServer(opts.addr, mux), 5*time.Second); err != nil {
		return err
	}
	logger.Info("shut down cleanly")
	return nil
}

// routeOf labels the search API's two routes by path and every other
// /v2/ path (each a 404) with one fixed label, so client-chosen paths
// cannot create metric or span series.
func routeOf(r *http.Request) string {
	switch r.URL.Path {
	case "/v2/search", "/v2/healthz":
		return r.URL.Path
	}
	return "/v2/other"
}

// dumpCorpus writes the served store's contents as a snapshot —
// atomically, so a crash mid-dump can never leave a truncated file
// that a later -corpus load would half-parse. It dumps the store, not
// a regenerated seed corpus, so posts recovered from a data directory
// are never silently missing from the dump.
func dumpCorpus(store *psp.SocialStore, seed int64, path string, logger *slog.Logger) error {
	if err := psp.WriteSocialStoreFile(path, store); err != nil {
		return err
	}
	logger.Info("wrote snapshot", "posts", store.Len(), "seed", seed, "path", path)
	return nil
}
