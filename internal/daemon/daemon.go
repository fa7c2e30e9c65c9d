// Package daemon is the bootstrap cmd/pspd and cmd/sociald share: the
// flag block both accept, the structured logger, the metrics registry
// and the tracer recording into it, the store opener and the HTTP
// server bounds. Each daemon keeps only its own flags and routes.
package daemon

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	psp "github.com/psp-framework/psp"
)

// Flags is the flag block both daemons accept.
type Flags struct {
	Seed        int64
	Corpus      string
	DataDir     string
	Shards      int
	TraceSample float64
	SlowMS      int
	LogLevel    string
	LogFormat   string
	Pprof       bool
}

// Register binds the shared flags, with their defaults, on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.Int64Var(&f.Seed, "seed", 42, "corpus seed (ignored with -corpus)")
	fs.StringVar(&f.Corpus, "corpus", "", "seed the store from a JSON Lines snapshot instead of generating")
	fs.StringVar(&f.DataDir, "data-dir", "", "durable data directory (WAL + snapshots, and pspd's monitor state); empty runs in-memory")
	fs.IntVar(&f.Shards, "shards", 0, "store shard count (0 = library default)")
	fs.Float64Var(&f.TraceSample, "trace-sample", 0.1, "probabilistic trace sample rate in [0,1]; errors and slow spans are always kept")
	fs.IntVar(&f.SlowMS, "slow-ms", 250, "spans at least this many milliseconds long are always traced and logged (<0 disables)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log floor: debug, info, warn or error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "log encoding: text or json")
	fs.BoolVar(&f.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
}

// Base is what both daemons build before their own wiring.
type Base struct {
	Logger   *slog.Logger
	Registry *psp.MetricsRegistry
	Tracer   *psp.Tracer
	Store    *psp.SocialStore
	// Recovered reports whether an existing data directory supplied the
	// corpus (seeding was then skipped).
	Recovered bool
}

// Boot builds the logger, a registry carrying psp_build_info, a tracer
// recording into that registry, and the store (OpenStore) with its
// metrics and the tracer attached. Every span the daemon emits thus
// feeds the registry's psp_trace_* series, which are its per-stage
// count, error and latency record. Release the store with Close.
func Boot(f Flags) (*Base, error) {
	logger, err := newLogger(f.LogLevel, f.LogFormat)
	if err != nil {
		return nil, err
	}
	reg := psp.NewMetricsRegistry()
	psp.RegisterBuildInfo(reg, psp.Version)
	tracer := psp.NewTracer(psp.TracerOptions{
		SampleRate:    f.TraceSample,
		SlowThreshold: time.Duration(f.SlowMS) * time.Millisecond,
		Logger:        logger,
		Registry:      reg,
	})
	store, recovered, err := OpenStore(f, psp.NewSocialStoreMetrics(reg))
	if err != nil {
		return nil, err
	}
	store.SetTracer(tracer)
	return &Base{Logger: logger, Registry: reg, Tracer: tracer, Store: store, Recovered: recovered}, nil
}

// Close closes the store, logging a failure. With -data-dir this
// compacts the WAL tail into a final snapshot, so the next start
// recovers without replay; in-memory it is a no-op.
func (b *Base) Close() {
	if err := b.Store.Close(); err != nil {
		b.Logger.Error("final flush failed", "error", err)
	}
}

// newLogger builds the daemon logger from the -log-level/-log-format
// flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (valid: debug, info, warn, error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (valid: text, json)", format)
	}
}

// OpenStore builds the store, striped across f.Shards, and attaches met
// (nil for none) from the first recovery replay on.
//
// With f.DataDir the store is durable. The Seed hook fills an empty
// directory from f.Corpus or the generator; it runs only until the
// directory's seed marker commits and resumes a crashed seed
// idempotently, so a kill -9 mid-seed never leaves a silently partial
// corpus and every seed post is WAL-durable before the daemon serves.
// recovered reports whether the directory already held a store.
// Without f.DataDir the store is in-memory, from the same source.
func OpenStore(f Flags, met *psp.SocialStoreMetrics) (store *psp.SocialStore, recovered bool, err error) {
	if f.DataDir != "" {
		_, statErr := os.Stat(filepath.Join(f.DataDir, "MANIFEST.json"))
		store, err = psp.OpenSocialStore(f.DataDir, psp.SocialDurableOptions{
			Shards:  f.Shards,
			Seed:    func() ([]*psp.Post, error) { return seedPosts(f.Seed, f.Corpus) },
			Metrics: met,
		})
		if err != nil {
			return nil, false, err
		}
		return store, statErr == nil, nil
	}
	posts, err := seedPosts(f.Seed, f.Corpus)
	if err != nil {
		return nil, false, err
	}
	store = psp.NewSocialStoreShards(f.Shards)
	if err := store.Add(posts...); err != nil {
		return nil, false, fmt.Errorf("load corpus: %w", err)
	}
	store.SetMetrics(met)
	return store, false, nil
}

// seedPosts produces the corpus: the JSON Lines file at path, or the
// reference corpus generated from seed when path is empty.
func seedPosts(seed int64, path string) ([]*psp.Post, error) {
	if path == "" {
		return psp.GenerateCorpus(psp.DefaultCorpusSpec(seed))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open corpus: %w", err)
	}
	defer f.Close()
	posts, err := psp.ReadSocialPosts(f)
	if err != nil {
		return nil, fmt.Errorf("load corpus %s: %w", path, err)
	}
	return posts, nil
}

// NewServer returns the daemons' HTTP server for h on addr, with
// slowloris/stuck-client bounds: a request (headers + body) must
// arrive within ReadTimeout and a response flush within WriteTimeout
// (generous enough for 30s pprof profiles); idle keep-alive
// connections are reaped after IdleTimeout.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}
