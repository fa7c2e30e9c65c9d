package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	psp "github.com/psp-framework/psp"
)

// restartSample is how many seed-corpus IDs every reopen must find.
const restartSample = 32

// restart drives restart-warm: back-to-back cycles of open → warm
// restore → delta ingest → flush → close. Every cycle starts from a
// fresh copy of the directory seeded at boot, so each one reopens the
// same state and its work does not depend on how many cycles ran
// before it.
type restart struct {
	e    *env
	tr   *psp.Tracer
	root string // holds seeded and dir
	// seeded is the directory as boot left it; dir is the copy a cycle
	// runs on.
	seeded, dir string
	reg         *psp.MetricsRegistry
	met         *psp.SocialStoreMetrics

	// seededLen and seedSample describe the seeded directory: its post
	// count and IDs sampled from its corpus.
	seededLen  int
	seedSample []string
	// wantLen and sample are what the next open of dir must reproduce:
	// the post count at its last close and IDs from the seed corpus plus
	// its last delta.
	wantLen int
	sample  []string
	// recomputed reports whether the last delta run on dir re-assessed,
	// and so re-persisted the monitor state; when it did not, the next
	// restore has a catch-up delta to assess before it is current.
	recomputed bool
}

// bootRestart seeds the workload's durable directory: the padded
// corpus through the Seed hook, then the monitor's cold initial
// assessment persisted as its warm-restart state.
func bootRestart(ctx context.Context, e *env, tr *psp.Tracer) (system, error) {
	root, err := e.tempDir("restart")
	if err != nil {
		return nil, err
	}
	s := &restart{e: e, tr: tr, root: root, seeded: filepath.Join(root, "seeded"), dir: filepath.Join(root, "cycle"), reg: psp.NewMetricsRegistry()}
	s.met = psp.NewSocialStoreMetrics(s.reg)
	posts, err := corpus(referenceSeed, e.seed, e.sz.restartPosts)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	opts := s.opts()
	opts.Seed = func() ([]*psp.Post, error) { return posts, nil }
	store, err := psp.OpenSocialStore(s.seeded, opts)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	mon, err := startMonitor(store, s.seeded, s.reg, tr)
	if err == nil {
		_, err = mon.waitGen(ctx, 1)
		err = errors.Join(err, mon.stop())
	}
	s.seededLen = store.Len()
	if err := errors.Join(err, store.Close()); err != nil {
		return nil, errors.Join(err, s.close())
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < restartSample; i++ {
		s.seedSample = append(s.seedSample, posts[rng.Intn(len(posts))].ID)
	}
	return s, nil
}

func (s *restart) opts() psp.SocialDurableOptions {
	return psp.SocialDurableOptions{Metrics: s.met, CompactEvery: compactEvery}
}

func (s *restart) close() error { return os.RemoveAll(s.root) }

// reset replaces dir with a copy of the seeded directory.
func (s *restart) reset() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	if err := copyDir(s.seeded, s.dir); err != nil {
		return err
	}
	// The cold initial assessment persisted at boot is current.
	s.wantLen, s.sample, s.recomputed = s.seededLen, s.seedSample, true
	return nil
}

// copyDir copies the tree at src to dst and syncs every file, so that a
// cycle's own fsyncs do not also write back the copy.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		return copyFile(path, to)
	})
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	return errors.Join(err, out.Sync(), out.Close())
}

// cycle is one restart cycle's measurements.
type cycle struct {
	warmOpen     time.Duration // open call → catch-up assessment published
	fresh        time.Duration // delta acknowledged → assessment covering it
	warm         bool          // the monitor restored its persisted state
	indexed      int           // stripes the open loaded from index sidecars
	rebuilt      int           // stripes it re-tokenized instead
	compactBytes int64
	deltaBytes   int64
}

func (s *restart) drive(ctx context.Context, warmup, measure time.Duration) (*pass, error) {
	w := newWindow(warmup, measure)
	ps := newPass(w)
	rt := sampleRuntime(w)
	before := snapshotAt(w.from, func() storeCounters { return readCounters(s.met) })
	var (
		n, warm, indexed, stripes int
		compacted, ingested       int64
		opens                     []time.Duration
	)
	for c := 0; time.Now().Before(w.end); c++ {
		if err := s.reset(); err != nil {
			return nil, err
		}
		due := time.Now()
		r, err := s.cycle(ctx, c, ps)
		if err != nil {
			return nil, err
		}
		if !w.measured(due) {
			continue
		}
		n++
		ps.attempted++
		ps.response.add(due, r.warmOpen)
		ps.visible.add(due, r.fresh)
		opens = append(opens, r.warmOpen)
		if r.warm {
			warm++
		}
		indexed += r.indexed
		stripes += r.indexed + r.rebuilt
		compacted += r.compactBytes
		ingested += r.deltaBytes
	}
	after := readCounters(s.met)
	start := before()
	ps.rt = rt.finish()

	// One more open, untimed, checks the last cycle's close and reads
	// the live heap with the store and monitor up.
	store, mon, _, err := s.open(ctx)
	if err != nil {
		return nil, err
	}
	s.check(ps, store)
	ps.heapMB = heapLiveMB()
	if err := errors.Join(mon.stop(), store.Close()); err != nil {
		return nil, err
	}

	fresh := ps.visible.all()
	ps.diag = []metric{
		{"warm_open_p50_ms", ms(quantile(opens, 0.5)), "ms"},
		{"warm_open_max_ms", ms(quantile(opens, 1)), "ms"},
		{"restart_fresh_p50_ms", ms(quantile(fresh, 0.5)), "ms"},
		{"write_amp", ratio(float64(compacted), float64(ingested)), "ratio"},
		{"warm_ratio", ratio(float64(warm), float64(n)), "ratio"},
		{"restart_cycles", float64(n), "count"},
	}
	ps.layer = after.layer(start, s.met)
	ps.layer["open.indexed_ratio"] = ratio(float64(indexed), float64(stripes))
	ps.layer["monitor.restore.warm_ratio"] = ratio(float64(warm), float64(n))
	return ps, nil
}

// open reopens the directory and waits until the monitor serves a
// current assessment: the restored one when the persisted state is
// current, else the one its catch-up delta run publishes (or, if the
// state could not be restored, the cold run's).
func (s *restart) open(ctx context.Context) (*psp.SocialStore, *monRun, *psp.Assessment, error) {
	_, span := s.tr.Start(ctx, "bench.open")
	store, err := psp.OpenSocialStore(s.dir, s.opts())
	span.End()
	if err != nil {
		return nil, nil, nil, err
	}
	store.SetTracer(s.tr)
	_, rspan := s.tr.Start(ctx, "bench.restore")
	defer rspan.End()
	mon, err := startMonitor(store, s.dir, s.reg, s.tr)
	if err != nil {
		return nil, nil, nil, errors.Join(err, store.Close())
	}
	a, err := mon.waitGen(ctx, 1)
	if err == nil && a.Restored && !s.recomputed {
		a, err = mon.waitGen(ctx, a.Generation+1)
	}
	if err != nil {
		return nil, nil, nil, errors.Join(err, mon.stop(), store.Close())
	}
	rspan.SetBool("warm", !a.FullRun)
	return store, mon, a, nil
}

// check compares a reopened store with the state dir was last closed
// in: the seeded directory's after a reset, else the last cycle's.
func (s *restart) check(ps *pass, store *psp.SocialStore) {
	if got := store.Len(); got != s.wantLen {
		ps.problem("reopened store holds %d posts, %d at close", got, s.wantLen)
	}
	for _, id := range s.sample {
		if store.Post(id) == nil {
			ps.problem("reopened store lost post %s", id)
		}
	}
}

// cycle runs restart cycle c.
func (s *restart) cycle(ctx context.Context, c int, ps *pass) (cycle, error) {
	var r cycle
	t0 := time.Now()
	store, mon, a, err := s.open(ctx)
	if err != nil {
		return r, err
	}
	r.warmOpen = time.Since(t0)
	r.warm = !a.FullRun
	st := store.Stats()
	r.indexed, r.rebuilt = st.RecoveredIndexed, st.RecoveredRebuilt
	s.check(ps, store)

	delta := restartDelta(s.e.seed, c, s.e.sz.deltaPosts)
	payload, err := json.Marshal(delta)
	if err != nil {
		return r, errors.Join(err, mon.stop(), store.Close())
	}
	r.deltaBytes = int64(len(payload))
	dctx, span := s.tr.Start(ctx, "bench.delta")
	added, err := store.AddCountContext(dctx, delta...)
	ack := time.Now()
	span.End()
	if err != nil || added != len(delta) {
		ps.problem("restart delta %d: added %d of %d: %v", c, added, len(delta), err)
	}
	cover := waitIngested(ctx, mon.m, a.Ingested+added)
	if cover == nil || cover.Ingested < a.Ingested+added {
		ps.problem("restart delta %d never covered by a published assessment", c)
	} else {
		r.fresh = cover.UpdatedAt.Sub(ack)
		s.recomputed = cover.Recomputed
	}

	_, span = s.tr.Start(ctx, "bench.flush")
	err = store.Flush()
	span.End()
	r.compactBytes = store.Stats().CompactionBytes
	s.wantLen = store.Len()
	s.sample = append(append([]string(nil), s.seedSample...), delta[0].ID, delta[len(delta)-1].ID)
	err = errors.Join(err, mon.stop())
	_, span = s.tr.Start(ctx, "bench.close")
	err = errors.Join(err, store.Close())
	span.End()
	if err != nil {
		return r, fmt.Errorf("restart cycle %d: %w", c, err)
	}
	return r, nil
}
