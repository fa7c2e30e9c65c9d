package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	psp "github.com/psp-framework/psp"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: ingest-cold, ingest-hot, search-federated, restart-warm, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds per pass (after the warm-up)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	flag.StringVar(&o.data, "data", filepath.Join(".bench_build", "data"), "directory for the booted systems' data")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Stdout, o, fullSizes)
	stop()
	os.Exit(code)
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	data     string
}

// sizes scale a run. fullSizes is the benchmark; the smoke test runs
// the same code on a small corpus.
type sizes struct {
	setups       int           // boots per untraced run; setup_s is their median
	warmup       time.Duration // discarded before every measured span
	backendPosts int           // posts per federated backend
	restartPosts int           // posts in the restart-warm directory
	deltaPosts   int           // posts ingested per restart cycle
}

var fullSizes = sizes{setups: 3, warmup: 3 * time.Second, backendPosts: 32000, restartPosts: 32000, deltaPosts: 1000}

// env is what every boot needs: the seed, where data directories go,
// and the run's sizes.
type env struct {
	seed int64
	data string
	sz   sizes
}

func (e *env) tempDir(kind string) (string, error) {
	if err := os.MkdirAll(e.data, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.data, kind+"-")
}

// system is a booted, ready system under test. drive runs one pass —
// warm-up, then the measured span — and close releases everything.
type system interface {
	drive(ctx context.Context, warmup, measure time.Duration) (*pass, error)
	close() error
}

// bootFunc boots a fresh system, traced when tr is non-nil.
type bootFunc func(ctx context.Context, e *env, tr *psp.Tracer) (system, error)

type workload struct {
	name string
	boot bootFunc
}

var workloads = []workload{
	{"ingest-cold", bootIngest(false)},
	{"ingest-hot", bootIngest(true)},
	{"search-federated", bootFederated},
	{"restart-warm", bootRestart},
}

func run(ctx context.Context, out io.Writer, o options, sz sizes) int {
	var selected []workload
	for _, wl := range workloads {
		if o.workload == wl.name || o.workload == "all" {
			selected = append(selected, wl)
		}
	}
	switch {
	case len(selected) == 0:
		fmt.Fprintf(os.Stderr, "pspbench: unknown -workload %q\n", o.workload)
		return 2
	case o.seconds < 1 || (o.trace != 0 && o.trace != 1):
		fmt.Fprintln(os.Stderr, "pspbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	e := &env{seed: o.seed, data: filepath.Join(o.data, fmt.Sprintf("run-%d", os.Getpid())), sz: sz}
	defer os.RemoveAll(e.data)
	code := 0
	for _, wl := range selected {
		rep, err := runWorkload(ctx, wl, e, time.Duration(o.seconds)*time.Second, o.trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pspbench: %s: %v\n", wl.name, err)
			return 1
		}
		if err := rep.print(out); err != nil {
			fmt.Fprintln(os.Stderr, "pspbench:", err)
			return 1
		}
		if !rep.correct() {
			code = 1
		}
	}
	return code
}

// runWorkload measures one workload. Untraced, it boots the system
// sz.setups times (setup_s is the median boot), keeps the last boot and
// drives it. Traced, it drives an untraced boot and then a traced one,
// and reports the per-layer breakdown.
func runWorkload(ctx context.Context, wl workload, e *env, measure time.Duration, traced bool) (*report, error) {
	rep := &report{workload: wl.name, seed: e.seed, traced: traced}
	setups := 1
	if !traced {
		setups = e.sz.setups
	}
	base, setup, err := onePass(ctx, wl, e, nil, setups, measure)
	if err != nil {
		return nil, err
	}
	rep.add(base)
	rep.e2e = []metric{
		{"setup_s", median(setup).Seconds(), "s"},
		{"response_p50_ms", ms(quantile(base.response.all(), 0.5)), "ms"},
		{"visible_p50_ms", ms(quantile(base.visible.all(), 0.5)), "ms"},
		{"heap_live_mb", base.heapMB, "MB"},
	}
	rep.diag = append(base.diag, metric{"error_rate", ratio(float64(base.failed), float64(base.attempted)), "ratio"})
	if !traced {
		return rep, nil
	}

	tr := psp.NewTracer(psp.TracerOptions{SampleRate: 1, Capacity: traceCapacity, Registry: psp.NewMetricsRegistry()})
	tp, _, err := onePass(ctx, wl, e, tr, 1, measure)
	if err != nil {
		return nil, err
	}
	rep.add(tp)
	spans := tr.Spans(0)
	if len(spans) >= traceCapacity {
		rep.problem("trace ring of %d spans filled up; per-layer figures would miss spans", traceCapacity)
	}
	rep.layer = layerMetrics(rep, index(spans), base, tp)
	return rep, nil
}

// onePass boots the workload's system boots times, timing each boot,
// drives the last one and closes everything.
func onePass(ctx context.Context, wl workload, e *env, tr *psp.Tracer, boots int, measure time.Duration) (*pass, []time.Duration, error) {
	var (
		sys   system
		times []time.Duration
	)
	for i := 0; i < boots; i++ {
		t0 := time.Now()
		s, err := wl.boot(ctx, e, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("boot: %w", err)
		}
		times = append(times, time.Since(t0))
		if i < boots-1 {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
			continue
		}
		sys = s
	}
	p, err := sys.drive(ctx, e.sz.warmup, measure)
	if err := errors.Join(err, sys.close()); err != nil {
		return nil, nil, err
	}
	return p, times, nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// maxProblems caps the check failures a report lists (all are counted).
const maxProblems = 20

// pass is one measured pass over a booted system.
type pass struct {
	w                 window
	response, visible *samples // the workload's two end-to-end latencies
	attempted, failed int
	problems          []string
	diag              []metric           // workload-specific figures, named as the workload knows them
	layer             map[string]float64 // per-layer figures read from counters rather than spans
	rt                runtimeStats
	heapMB            float64
}

func newPass(w window) *pass {
	return &pass{w: w, response: &samples{w: w}, visible: &samples{w: w}}
}

// problem records a failed correctness check.
func (p *pass) problem(format string, args ...any) {
	p.failed++
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *pass) merge(l *streamLog) {
	p.attempted += l.attempted
	p.failed += l.failed
	for _, msg := range l.errs {
		if len(p.problems) < maxProblems {
			p.problems = append(p.problems, msg)
		}
	}
}

// streamLog is one generator stream's tally.
type streamLog struct {
	attempted, failed, conflicts int
	late                         []time.Duration // per measured op: run time minus due time
	errs                         []string
}

// begin counts an op due at due if it falls in the measured span and
// reports whether it does.
func (l *streamLog) begin(w window, due time.Time) bool {
	m := w.measured(due)
	if m {
		l.attempted++
	}
	return m
}

func (l *streamLog) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < maxProblems {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// snapshotAt reads a value when t arrives; the returned function waits
// for that read.
func snapshotAt[T any](t time.Time, read func() T) func() T {
	var v T
	done := make(chan struct{})
	time.AfterFunc(time.Until(t), func() {
		v = read()
		close(done)
	})
	return func() T {
		<-done
		return v
	}
}

// storeCounters are a durable store's cumulative WAL and compaction
// counters.
type storeCounters struct {
	appends, fsyncs, compactions, compactBytes uint64
}

func readCounters(m *psp.SocialStoreMetrics) storeCounters {
	return storeCounters{
		appends:      m.WAL.Appends.Value(),
		fsyncs:       m.WAL.Fsyncs.Value(),
		compactions:  m.Compactions.Value(),
		compactBytes: m.CompactionBytes.Value(),
	}
}

// layer turns the counters' growth since start into per-layer figures.
// Compaction latency comes from the store's histogram over the system's
// life: background compactions have no span to time.
func (c storeCounters) layer(start storeCounters, m *psp.SocialStoreMetrics) map[string]float64 {
	return map[string]float64{
		"wal.append.records_per_fsync": ratio(float64(c.appends-start.appends), float64(c.fsyncs-start.fsyncs)),
		"compact.count":                float64(c.compactions - start.compactions),
		"compact.bytes":                float64(c.compactBytes - start.compactBytes),
		"compact.ms_p50":               m.CompactionLatency.Quantile(0.5) * 1000,
	}
}

// report is one workload's outcome.
type report struct {
	workload          string
	seed              int64
	traced            bool
	e2e, diag, layer  []metric
	attempted, failed int
	problems          []string
}

func (r *report) add(p *pass) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

func (r *report) problem(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes every metric as a "class name value unit" line, the
// failed checks, and last the JSON summary: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func (r *report) print(w io.Writer) error {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# pspbench %s seed=%d %s\n", r.workload, r.seed, mode)
	for _, group := range []struct {
		class string
		ms    []metric
	}{{"e2e", r.e2e}, {"diag", r.diag}, {"layer", r.layer}} {
		for _, m := range group.ms {
			fmt.Fprintf(w, "%-5s %-40s %16.6f %s\n", group.class, m.name, m.value, m.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "check FAIL %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	metrics := r.e2e
	if r.traced {
		metrics = r.layer
	}
	for _, m := range metrics {
		summary.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
