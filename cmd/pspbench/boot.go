package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	psp "github.com/psp-framework/psp"
	"github.com/psp-framework/psp/internal/fault"
	"github.com/psp-framework/psp/internal/social"
)

// Monitor timers and compaction cadence of every booted system. pspd's
// 200 ms debounce never fires under a 20 batch/s stream, so every
// assessment would wait out MaxLag and the delta-run cost the benchmark
// must expose would hide behind the timer; at 20 ms each ingest-hot
// batch gets its own delta run. Compaction runs on a 5 s timer so a
// measured window always holds the same number of background passes,
// instead of landing on the edge of the record-count trigger.
const (
	debounce     = 20 * time.Millisecond
	maxLag       = 200 * time.Millisecond
	compactEvery = 5 * time.Second
	readyTimeout = 2 * time.Minute
)

// pipeline is cmd/pspd's run wiring booted in-process: a durable store
// seeded through the Seed hook, the social monitor over the
// defaultThreats input with persisted state, the 15-ECU TARA fleet, and
// the monitor API with observability on a loopback listener.
type pipeline struct {
	dir   string
	met   *psp.SocialStoreMetrics
	store *psp.SocialStore
	mon   *monRun
	fleet *psp.TARAMonitor
	url   string

	srv       *http.Server
	stopFleet context.CancelFunc
	wg        sync.WaitGroup
}

// bootPipeline boots a pipeline in dir and returns once it is ready:
// the initial assessment published and the fleet's initial rating pass
// done — the conditions behind /v1/readyz, read in-process instead of
// polled over HTTP.
func bootPipeline(ctx context.Context, dir string, tr *psp.Tracer) (*pipeline, error) {
	reg := psp.NewMetricsRegistry()
	p := &pipeline{dir: dir, met: psp.NewSocialStoreMetrics(reg)}
	store, err := psp.OpenSocialStore(dir, psp.SocialDurableOptions{
		Seed:         func() ([]*psp.Post, error) { return psp.GenerateCorpus(psp.DefaultCorpusSpec(referenceSeed)) },
		Metrics:      p.met,
		CompactEvery: compactEvery,
	})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	store.SetTracer(tr)
	p.store = store
	p.mon, err = startMonitor(store, dir, reg, tr)
	if err != nil {
		return nil, p.abort(err)
	}
	p.fleet, err = newTARAFleet(p.mon.fw, p.mon.m, psp.NewTARAMonitorMetrics(reg), tr)
	if err != nil {
		return nil, p.abort(err)
	}
	fleetCtx, stopFleet := context.WithCancel(context.Background())
	p.stopFleet = stopFleet
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.fleet.Run(fleetCtx)
	}()
	api := psp.NewMonitorAPI(p.mon.m).WithObservability(reg, psp.NopLogger()).WithTracing(tr).WithTARA(p.fleet)
	if p.srv, p.url, err = serve(api.Handler(), &p.wg); err != nil {
		return nil, p.abort(err)
	}

	if _, err := p.mon.waitGen(ctx, 1); err != nil {
		return nil, p.abort(fmt.Errorf("initial assessment: %w", err))
	}
	rctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !p.fleet.Ready() {
		select {
		case <-rctx.Done():
			return nil, p.abort(fmt.Errorf("initial TARA rating pass: %w", rctx.Err()))
		case <-tick.C:
		}
	}
	return p, nil
}

// abort tears down a half-booted pipeline and returns err.
func (p *pipeline) abort(err error) error {
	return errors.Join(err, p.close())
}

// close stops the server and both monitors, closes the store (final
// compaction) and deletes the data directory.
func (p *pipeline) close() error {
	var errs []error
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, p.srv.Shutdown(ctx))
		cancel()
	}
	if p.stopFleet != nil {
		p.stopFleet()
	}
	if p.mon != nil {
		errs = append(errs, p.mon.stop())
	}
	p.wg.Wait()
	errs = append(errs, p.store.Close(), os.RemoveAll(p.dir))
	return errors.Join(errs...)
}

// monRun is a social monitor over a durable store, with its warm-restart
// state persisted in the store's directory, running until stop.
type monRun struct {
	fw     *psp.Framework
	m      *psp.Monitor
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

func startMonitor(store *psp.SocialStore, dir string, reg *psp.MetricsRegistry, tr *psp.Tracer) (*monRun, error) {
	fw, err := psp.New(psp.Config{Searcher: store})
	if err != nil {
		return nil, err
	}
	m, err := psp.NewMonitor(psp.MonitorConfig{
		Framework: fw,
		Store:     store,
		Input:     psp.SocialInput{Threats: defaultThreats()},
		Debounce:  debounce,
		MaxLag:    maxLag,
		State:     psp.NewMonitorFileState(filepath.Join(dir, "monitor.json")),
		Metrics:   psp.NewMonitorMetrics(reg),
		Tracer:    tr,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &monRun{fw: fw, m: m, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.err = r.m.Run(ctx)
	}()
	return r, nil
}

// waitGen waits for a published assessment of generation gen or later,
// failing fast if the monitor's run ends (an initial assessment error).
func (r *monRun) waitGen(ctx context.Context, gen uint64) (*psp.Assessment, error) {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	go func() {
		select {
		case <-r.done:
			cancel()
		case <-ctx.Done():
		}
	}()
	a, err := r.m.WaitFor(ctx, gen)
	if err != nil {
		select {
		case <-r.done:
			return nil, fmt.Errorf("monitor stopped: %w", r.err)
		default:
		}
		return nil, err
	}
	return a, nil
}

// stop cancels the monitor and waits for its run to return.
func (r *monRun) stop() error {
	r.cancel()
	<-r.done
	if errors.Is(r.err, context.Canceled) {
		return nil
	}
	return r.err
}

// serve starts an HTTP server for h on a loopback port; wg tracks the
// serving goroutine.
func serve(h http.Handler, wg *sync.WaitGroup) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// newTARAFleet mirrors cmd/pspd: one TARA tenant per reference
// architecture ECU, the monitored threat scenarios attached to the ECM
// and BCM tenants, and the fleet's rating loop bridged to the social
// monitor's tunings.
func newTARAFleet(fw *psp.Framework, m *psp.Monitor, met *psp.TARAMonitorMetrics, tr *psp.Tracer) (*psp.TARAMonitor, error) {
	top, err := psp.ReferenceArchitecture()
	if err != nil {
		return nil, err
	}
	reg, err := psp.DeriveTARARegistry(top)
	if err != nil {
		return nil, err
	}
	threats := defaultThreats()
	for i, tenant := range []string{"ECM", "BCM"} {
		ten, ok := reg.Get(tenant)
		if !ok {
			return nil, fmt.Errorf("tara fleet: reference architecture has no %s tenant", tenant)
		}
		th := *threats[i]
		th.DamageIDs = []string{"DS-TAMPER"}
		if _, err := ten.Mutate(func(a *psp.Analysis) (bool, error) {
			if err := a.UpsertThreat(&th); err != nil {
				return false, err
			}
			if _, err := psp.SyncTARAPaths(top, a, tenant); err != nil {
				return false, err
			}
			return true, nil
		}); err != nil {
			return nil, fmt.Errorf("tara fleet: attach %s to %s: %w", th.ID, tenant, err)
		}
	}
	return psp.NewTARAMonitor(psp.TARAMonitorConfig{
		Framework: fw,
		Registry:  reg,
		Social:    m,
		Debounce:  debounce,
		Metrics:   met,
		Tracer:    tr,
	})
}

// defaultThreats is cmd/pspd's monitored threat list: the paper's ECM
// reprogramming case plus the outsider immobilizer bypass.
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

// backendNames name the federated platforms; Multi prefixes post IDs
// with them.
var backendNames = []string{"alpha", "beta"}

// federation is two sociald backends on loopback behind an armed
// Multi: per-backend timeout, partial pages and circuit breakers, as in
// BENCH_8, with 1 ms of round-trip latency injected into every backend
// request by a fault.RoundTripper.
type federation struct {
	multi   psp.Searcher
	multiMt *psp.MultiMetrics
	servers []*http.Server
	wg      sync.WaitGroup
}

// bootFederation builds each backend's corpus of n posts, serves it, and returns once a federated probe page comes
// back healthy. corpora receives the backends' posts for the reference
// store.
func bootFederation(ctx context.Context, seed int64, n int, tr *psp.Tracer) (f *federation, corpora [][]*psp.Post, err error) {
	reg := psp.NewMetricsRegistry()
	f = &federation{multiMt: psp.NewMultiMetrics(reg)}
	var sources []psp.PlatformSource
	for b, name := range backendNames {
		// Disjoint backends: each holds its own reference-shaped corpus.
		posts, err := corpus(referenceSeed+int64(b), seed*10+int64(b), n)
		if err != nil {
			return nil, nil, errors.Join(err, f.close())
		}
		corpora = append(corpora, posts)
		store := psp.NewSocialStore()
		store.SetMetrics(psp.NewSocialStoreMetrics(reg))
		if err := store.Add(posts...); err != nil {
			return nil, nil, errors.Join(err, f.close())
		}
		store.SetTracer(tr)
		// sociald's wiring: the HTTP middleware labels routes by path and
		// continues the caller's traceparent.
		h := psp.NewHTTPMetrics(reg, nil).WithTracer(tr).Instrument(
			func(r *http.Request) string { return r.URL.Path }, psp.NewSocialServer(store, nil).Handler())
		srv, url, err := serve(h, &f.wg)
		if err != nil {
			return nil, nil, errors.Join(err, f.close())
		}
		f.servers = append(f.servers, srv)
		rtt := &fault.RoundTripper{
			Base: &http.Transport{MaxIdleConnsPerHost: 1},
			Inj:  fault.New(fault.Config{Latency: time.Millisecond}),
		}
		client := social.NewClient(url, &http.Client{Timeout: 10 * time.Second, Transport: rtt})
		sources = append(sources, psp.PlatformSource{Name: name, Searcher: client})
	}
	f.multi, err = psp.NewMultiPlatformOptions(psp.MultiOptions{
		BackendTimeout:   5 * time.Second,
		Partial:          true,
		BreakerThreshold: 3,
		Metrics:          f.multiMt,
		Tracer:           tr,
	}, sources...)
	if err != nil {
		return nil, nil, errors.Join(err, f.close())
	}
	page, err := f.multi.Search(ctx, psp.SocialQuery{AnyTags: []string{"fillerchatter"}, MaxResults: 1})
	if err == nil && page.Degraded {
		err = fmt.Errorf("federated probe page degraded: %+v", page.Backends)
	}
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("federated probe: %w", err), f.close())
	}
	return f, corpora, nil
}

func (f *federation) close() error {
	var errs []error
	for _, srv := range f.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, srv.Shutdown(ctx))
		cancel()
	}
	f.wg.Wait()
	return errors.Join(errs...)
}

// unionStore is the federated listings' reference: every backend's
// posts under the IDs Multi gives them, in one in-memory store.
func unionStore(corpora [][]*psp.Post) (*psp.SocialStore, error) {
	ref := psp.NewSocialStore()
	for b, posts := range corpora {
		cp := make([]*psp.Post, len(posts))
		for i, p := range posts {
			q := *p
			q.ID = backendNames[b] + ":" + p.ID
			cp[i] = &q
		}
		if err := ref.Add(cp...); err != nil {
			return nil, err
		}
	}
	return ref, nil
}
