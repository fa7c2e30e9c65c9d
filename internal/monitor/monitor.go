package monitor

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/social"
)

// Config wires a Monitor.
type Config struct {
	// Framework runs the social workflow (required).
	Framework *core.Framework
	// Store is the watched ingest store (required): posts added to it —
	// directly or through the API's ingest endpoint — drive incremental
	// re-assessment.
	Store *social.Store
	// Searcher is the platform the workflow queries; nil uses Store.
	// Set it to a federated Multi when the monitored store is only one
	// of several platforms.
	Searcher social.Searcher
	// Input parameterizes the monitored workflow run (application,
	// region, window, threat scenarios).
	Input core.SocialInput
	// Debounce is the quiet period after the last ingested batch before
	// a workflow re-run (default 200ms). It coalesces work only: a batch
	// that owes none — it matches no cached fill, while nothing is owed or
	// pending and no retry is scheduled — publishes a metadata-only
	// generation at once, whatever the debounce. It is also the idle
	// threshold: a batch that owes work and arrives when nothing is
	// pending, no retry is scheduled and at least Debounce has passed
	// since the last flush ended is an isolated delta and runs at once;
	// a burst waits for Debounce of quiet after its last batch.
	Debounce time.Duration
	// MaxLag bounds how long a continuous ingest stream may defer a
	// workflow re-run (default 10× Debounce); it never delays an
	// isolated delta, nor one that owes no work, which publish at once.
	MaxLag time.Duration
	// State, when set, persists the monitor's warm-restart image (the
	// assessment's metadata, the result cache's fills and slice memos,
	// and the watched store's durable cursor) after every publication
	// that re-ran the workflow, and when Run stops after metadata-only
	// ones, and restores it at the next Run: a restarted monitor
	// re-derives its last assessment from the restored cache without a
	// platform query, serves it under the persisted generation, and
	// catches up with one incremental delta run, as warm as the process
	// that saved it, instead of a cold full workflow. Warm restore
	// requires Store to be durable (social.OpenStoreDir) — without a
	// durable cursor the state is saved with a nil cursor and ignored at
	// restore time.
	State StateStore
	// Metrics, when set, records publication counts, debounce-to-publish
	// latency and delta sizes (see NewMetrics); gauge-valued readings
	// (generation, assessment age, error age) register at construction.
	Metrics *Metrics
	// Tracer, when set, records one "monitor.flush" span per
	// publication after the initial one, with the delta's cost
	// attribution (posts, cache fills patched or dropped, dirty
	// topics/threats, whether the workflow re-ran). Every batch is
	// classified on arrival: inside the span of the pass it starts at
	// once, outside any span when it waits in a debounce window. When
	// the watched store is traced too (Store.SetTracer),
	// the flush span links into the trace of the ingest that triggered
	// it, so GET /v1/trace shows ingest → WAL → delta run end to end.
	// The span is the flush's only count, failure and latency record
	// (psp_trace_* on the tracer's registry). A state save (Config.State)
	// is timed by its own "monitor.save" span, a child of the flush it
	// follows, with the saved image's size.
	Tracer *obs.Tracer
	// Logger receives the monitor's structured log lines; nil discards.
	Logger *slog.Logger

	// clock is the monitor's time source; New defaults it to the wall
	// clock.
	clock clock
}

// Assessment is one immutable snapshot of the monitored risk picture:
// the latest SocialResult plus the freshness metadata a consumer needs
// to judge how current it is.
type Assessment struct {
	// Result is the cached workflow output (never nil).
	Result *core.SocialResult
	// Generation increments with every published snapshot.
	Generation uint64
	// UpdatedAt is the publication instant.
	UpdatedAt time.Time
	// CorpusSize is the watched store's post count at publication.
	CorpusSize int
	// Ingested counts posts observed on the changefeed since Run
	// started.
	Ingested int
	// FullRun marks the initial cold assessment.
	FullRun bool
	// Recomputed reports whether this generation re-ran the workflow;
	// false means the delta touched no cached query and the previous
	// result was re-published with fresh metadata.
	Recomputed bool
	// Restored marks an assessment served from persisted state after a
	// restart: its result was re-derived from the restored result cache
	// without a platform query, before any catch-up delta. Its
	// Generation and UpdatedAt are the persisted ones, so pollers (and
	// their ETags) see continuity across the restart.
	Restored bool
	// Dirty summarizes which topics and threats the triggering delta
	// could affect (empty on the initial run).
	Dirty core.DirtySet
}

// Monitor schedules incremental re-assessment over a store changefeed.
// Create with New, drive with Run, read with Assessment or WaitFor.
type Monitor struct {
	cfg Config
	rc  *core.ResultCache
	// patch is set when the workflow queries the watched store itself:
	// a delta then patches the cached listings it matches instead of
	// dropping them, and a delta run queries the store only for
	// listings it has never drained.
	patch bool

	mu         sync.Mutex
	cur        *Assessment
	notify     chan struct{} // closed and replaced on every publish
	ingested   int
	lastErr    error // most recent re-assessment failure
	persistErr error // most recent state-save failure (never retried by re-running the workflow)
	// lastErrAt marks when the monitor entered its current error state
	// (workflow or persistence); zero while healthy. Feeds the
	// last-error-age gauge and the health surface.
	lastErrAt time.Time

	// Run's own bookkeeping, touched by no other goroutine. owed is
	// set when a classified batch matches a cached fill and cleared by
	// the next successful workflow run. cursor is the newest durable
	// cursor that covers only classified posts — the one a state save
	// records. saved is the generation of the last successful save.
	owed   bool
	cursor social.DurableCursor
	saved  uint64
}

// New validates the configuration and builds a Monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Framework == nil {
		return nil, fmt.Errorf("monitor: Framework is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("monitor: Store is required")
	}
	if cfg.Searcher == nil {
		cfg.Searcher = cfg.Store
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = 200 * time.Millisecond
	}
	if cfg.MaxLag <= 0 {
		cfg.MaxLag = 10 * cfg.Debounce
	}
	if cfg.clock == nil {
		cfg.clock = realClock{}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	m := &Monitor{
		cfg:    cfg,
		rc:     core.NewResultCache(cfg.Searcher),
		patch:  cfg.Searcher == cfg.Store,
		notify: make(chan struct{}),
	}
	m.registerGauges()
	return m, nil
}

// Run performs the initial assessment — warm from persisted state when
// Config.State holds a usable image (the result cache is restored from
// it, the restored snapshot publishes as soon as the workflow has
// re-derived its result from that cache, and the catch-up is one
// incremental delta run over the posts the durable cursor has not seen),
// cold otherwise — then tails the store's changefeed and re-assesses
// incrementally until ctx is cancelled. Transient workflow failures are
// recorded (see LastError) and retried on the next delta; Run only
// returns on context cancellation or if the initial assessment fails.
func (m *Monitor) Run(ctx context.Context) error {
	// Subscribe before computing the restart delta. The feed is
	// live-only: a post whose Add begins after Watch returns arrives on
	// it, and every earlier one not yet applied when the persisted
	// cursor was taken is in the durable log the delta scan reads —
	// either way it is seen (possibly twice; patching and invalidation
	// are idempotent).
	feed := m.cfg.Store.Watch(ctx)

	// Every post this cursor covers is in the restart delta or seen by
	// the cold run below. Later cursors come from Feed.Next, which
	// covers only posts the loop has taken and then classifies before
	// any save: a restart replays at most a little extra — and patching
	// and invalidation are idempotent — never too little.
	m.cursor = m.cfg.Store.DurableCursor()
	st, delta := m.tryRestore()
	if err := m.initialAssessment(ctx, st, len(delta)); err != nil {
		return err
	}
	var win window
	if len(delta) > 0 {
		// Served warm. Catch up on whatever the persisted state had not
		// seen, at once; an empty delta means the restored assessment
		// is already exact — keeping its generation (and its pollers'
		// ETags) alive across the restart.
		fctx, span := m.startFlush(ctx, true)
		m.classify(&win, social.ProfilePosts(delta))
		m.flush(fctx, span, &win)
	}

	// The schedule (see schedule) decides when a window that owes work
	// flushes: at once on the leading edge, else after a trailing
	// debounce bounded by MaxLag, or after a retry backoff. Its last
	// pass end stays zero through the initial or restored pass, so the
	// first delta after startup is leading-edge.
	sched := schedule{clock: m.cfg.clock, debounce: m.cfg.Debounce, maxLag: m.cfg.MaxLag}
	// A failed warm-restart catch-up must retry like any failed flush:
	// without this arm the loop would wait for the next ingested batch
	// while serving the stale restored assessment.
	if m.workflowError() != nil {
		sched.fail()
	}
	for {
		fired := false
		// fctx and span belong to the pass this wake-up may start.
		fctx, span := ctx, (*obs.Span)(nil)
		select {
		case <-ctx.Done():
			m.saveOnStop(ctx)
			return ctx.Err()
		case <-feed.Ready():
			batch, c := feed.Next()
			if c != nil {
				m.cursor = c
			}
			if len(batch) == 0 {
				continue // an earlier Next took the posts this signal stood for
			}
			// With nothing owed, this batch may start a pass now: at once
			// if it owes nothing either, else on the leading edge if the
			// schedule is idle (work owed already has its timer armed,
			// so it never starts one). Open the span first so that pass
			// times the classification too.
			if !m.owed {
				fctx, span = m.startFlush(ctx, true)
			}
			m.classify(&win, batch)
			if !m.owed {
				// Nothing to coalesce: the previous result is exact for
				// this batch too. (A pending window and an armed timer
				// always owe work, so none stands.) Publish at once,
				// outside the schedule — a pass recorded here would only
				// delay the leading edge of the next batch that does owe
				// work.
				m.flush(fctx, span, &win)
				continue
			}
			if fired = sched.arrive(); !fired {
				// The batch joins a debounce window, whose pass opens
				// its own span when the timer fires.
				span.Discard()
			}
		case <-sched.timer:
			// A timer firing with an empty window is a retry wake-up:
			// flush re-runs the workflow even with no new posts.
			fired = true
			fctx, span = m.startFlush(ctx, win.posts > 0)
		}
		if fired {
			m.flush(fctx, span, &win)
			// A workflow failure (its patches and drops already landed)
			// retries without waiting for the next delta. Persist-only
			// failures do NOT count: re-running the workflow cannot fix
			// a disk error, and the generation churn would invalidate
			// every poller's ETag for nothing.
			sched.ran(m.workflowError() != nil && ctx.Err() == nil)
		}
	}
}

// startFlush opens the "monitor.flush" span of a publication pass (nil
// without a tracer). A pass over posts continues the trace of the
// ingest that delivered them when there is one: the debounce coalesces
// batches, so the link names the last traced ingest of the window —
// the delta run still attributes to one concrete trace a /v1/trace
// lookup can follow end to end.
func (m *Monitor) startFlush(ctx context.Context, posts bool) (context.Context, *obs.Span) {
	if m.cfg.Tracer == nil {
		return ctx, nil
	}
	if posts {
		if traceID, spanID := m.cfg.Store.LastIngestTrace(); traceID != "" {
			return m.cfg.Tracer.StartLink(ctx, "monitor.flush", traceID, spanID)
		}
	}
	return m.cfg.Tracer.Start(ctx, "monitor.flush")
}

// window is the changefeed delta gathered since the last publication,
// classified as it arrived. It keeps counts, not posts: a classified
// batch has already reached the cache.
type window struct {
	posts int
	// dirty is the union of the batches' dirty slices; matched sums the
	// cached fills they patched or dropped.
	dirty   core.DirtySet
	matched int
	// since is when the first batch joined — the start point of the
	// published arrival-to-publish latency. Zero on a retry wake-up no
	// batch joined.
	since time.Time
}

// classify applies a batch, profiled once — by the store's ingest for a
// changefeed batch — to the cached fills it can appear in (patching
// them, or dropping them when the workflow queries another backend),
// adds its dirty slice to the window and records whether work is now
// owed. The dirty slice matches the batch against the current
// assessment's keyword database, so tags learned by a run (or restored
// with its result) count. Every post is classified exactly once, on arrival, or twice
// around a restart, which the cache absorbs.
func (m *Monitor) classify(w *window, batch []*social.PostProfile) {
	if w.posts == 0 {
		w.since = m.cfg.clock.Now()
	}
	var matched int
	if m.patch {
		matched = m.rc.PatchProfiles(batch)
	} else {
		matched = m.rc.InvalidateProfiles(batch)
	}
	dirty := m.Assessment().Result.DirtyForProfiles(m.cfg.Input, batch)
	w.posts += len(batch)
	w.matched += matched
	w.dirty = core.DirtySet{
		Topics:  unionSorted(w.dirty.Topics, dirty.Topics),
		Threats: unionSorted(w.dirty.Threats, dirty.Threats),
		Posts:   w.dirty.Posts + dirty.Posts,
	}
	m.owed = m.owed || matched > 0
}

// unionSorted merges two sorted string sets.
func unionSorted(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := append(append(make([]string, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// flush publishes the window under span (see startFlush), ends the
// span and empties the window. The workflow re-runs iff
// work is owed — a delta matched a fill since the last successful run,
// which also covers a due retry, since a failed run leaves its matches
// owed. Otherwise the delta cannot appear in any cached listing and the
// previous result is still exact: the window publishes fresh metadata
// without work, and the state file is not rewritten (result and fills
// are unchanged; saveOnStop saves the generation at shutdown).
func (m *Monitor) flush(ctx context.Context, span *obs.Span, w *window) {
	defer span.End()
	span.SetInt("delta_posts", int64(w.posts))
	span.SetInt("invalidated_fills", int64(w.matched))
	span.SetInt("dirty_topics", int64(len(w.dirty.Topics)))
	span.SetInt("dirty_threats", int64(len(w.dirty.Threats)))
	delta, dirty, since := w.posts, w.dirty, w.since
	*w = window{}

	met := m.cfg.Metrics
	if met != nil && delta > 0 {
		met.DeltaPosts.Observe(int64(delta))
	}
	observePublish := func() {
		if met != nil && !since.IsZero() {
			met.PublishLatency.Observe(int64(m.cfg.clock.Now().Sub(since)))
		}
	}

	m.mu.Lock()
	m.ingested += delta
	prev := m.cur
	m.mu.Unlock()

	span.SetBool("recomputed", m.owed)
	if !m.owed {
		m.publish(prev.Result, dirty, false, false)
		observePublish()
		return
	}
	res, err := m.cfg.Framework.RunSocialDelta(ctx, m.cfg.Input, m.rc)
	if err != nil {
		span.Fail(err)
		m.mu.Lock()
		m.lastErr = err
		if m.lastErrAt.IsZero() {
			m.lastErrAt = m.cfg.clock.Now()
		}
		m.mu.Unlock()
		m.cfg.Logger.Warn("re-assessment failed", slog.Int("delta_posts", delta), slog.Any("error", err))
		return
	}
	m.owed = false
	m.publish(res, dirty, false, true)
	observePublish()
	m.persistState(ctx)
}

// saveOnStop persists the last no-work generations when Run stops with
// nothing owed (and so nothing pending): those publications never save,
// and without this a restart would serve an older generation — or, once
// the store has compacted its WAL past the last saved cursor, run cold.
// Posts still pending on the feed are lost with the subscription, but
// the saved cursor does not cover them (see Feed.Next), so the restart
// replays them.
func (m *Monitor) saveOnStop(ctx context.Context) {
	if m.owed {
		return
	}
	if cur := m.Assessment(); cur != nil && cur.Generation > m.saved {
		m.persistState(ctx)
	}
}

// tryRestore loads persisted state and, when it is usable for the
// configured input and store, restores the result cache from it and
// returns the state with the catch-up delta (posts the persisted cursor
// has not seen). Any mismatch — no state, different input, non-durable
// store, cursor older than the WAL horizon, a fill that does not
// resolve — falls back to a nil state: the cold path.
func (m *Monitor) tryRestore() (*State, []*social.Post) {
	if m.cfg.State == nil {
		return nil, nil
	}
	st, err := m.cfg.State.Load()
	if err != nil {
		// Damaged, or in the older JSON layout: the first save
		// replaces it.
		m.cfg.Logger.Warn("persisted state unusable, running cold", slog.Any("error", err))
		return nil, nil
	}
	if st == nil || st.Cursor == nil {
		return nil, nil
	}
	if st.InputSig != stateSignature(m.cfg.Framework, m.cfg.Input) {
		return nil, nil
	}
	delta, err := m.cfg.Store.PostsSince(st.Cursor)
	if err != nil {
		return nil, nil
	}
	if m.rc.ImportFills(st.Fills, st.Memos, m.cfg.Store.Post) != len(st.Fills) {
		// A partially restored cache would make the "delta matched
		// nothing" shortcut unsound: a post matching a missing fill
		// would match nothing yet change the true result. (Fills hold
		// store post IDs, so this fires when the fills came from a
		// different backend — e.g. a federated Multi — or the store
		// lost posts.) Start over with an empty cache, cold.
		m.rc = core.NewResultCache(m.cfg.Searcher)
		return nil, nil
	}
	return st, delta
}

// initialAssessment runs the workflow over the result cache and
// publishes its result. With no restored state (st nil) that is the
// cold full run, saved at once. With one, the cache holds every listing
// and memo the saving process's last result was derived from, so the
// run re-derives that result without a platform query or a tokenized
// post, and it publishes as the restored snapshot: the persisted
// generation and freshness, no recompute counted, and already saved.
// Either way a failed run fails the initial assessment.
func (m *Monitor) initialAssessment(ctx context.Context, st *State, catchup int) error {
	res, err := m.cfg.Framework.RunSocialDelta(ctx, m.cfg.Input, m.rc)
	if err != nil {
		return fmt.Errorf("monitor: initial assessment: %w", err)
	}
	if st == nil {
		m.publish(res, core.DirtySet{}, true, true)
		m.persistState(ctx)
		return nil
	}
	m.mu.Lock()
	m.cur = &Assessment{
		Result:     res,
		Generation: st.Generation,
		UpdatedAt:  st.UpdatedAt,
		CorpusSize: st.CorpusSize,
		Restored:   true,
	}
	close(m.notify)
	m.notify = make(chan struct{})
	m.mu.Unlock()
	m.saved = st.Generation
	if met := m.cfg.Metrics; met != nil {
		met.Generations.Inc()
	}
	m.cfg.Logger.Info("assessment restored from persisted state",
		slog.Uint64("generation", st.Generation),
		slog.Int("corpus", st.CorpusSize),
		slog.Int("catchup_posts", catchup))
	return nil
}

// persistState saves the current assessment's metadata, the cache and
// the cursor Run last advanced to through the configured state store,
// under a "monitor.save" span carrying the image size — a child of the
// flush whose publication it follows, so the flush's self time is its
// path to publication. Persistence failures are recorded like
// re-assessment failures (LastError / healthz) — the monitor keeps
// serving, it just will not restart warm.
func (m *Monitor) persistState(ctx context.Context) {
	cursor := m.cursor
	if m.cfg.State == nil || cursor == nil {
		return
	}
	cur := m.Assessment()
	if cur == nil {
		return
	}
	_, span := m.cfg.Tracer.Start(ctx, "monitor.save")
	defer span.End()
	n, err := m.cfg.State.Save(&State{
		InputSig:   stateSignature(m.cfg.Framework, m.cfg.Input),
		Generation: cur.Generation,
		UpdatedAt:  cur.UpdatedAt,
		CorpusSize: cur.CorpusSize,
		Cursor:     cursor,
		Fills:      m.rc.ExportFills(),
		Memos:      m.rc.ExportMemos(),
	})
	span.SetInt("bytes", int64(n))
	span.Fail(err)
	m.mu.Lock()
	if err != nil {
		m.persistErr = fmt.Errorf("monitor: persist state: %w", err)
		if m.lastErrAt.IsZero() {
			m.lastErrAt = m.cfg.clock.Now()
		}
	} else {
		m.persistErr = nil
		m.saved = cur.Generation
		if m.lastErr == nil {
			m.lastErrAt = time.Time{}
		}
	}
	m.mu.Unlock()
	if err != nil {
		m.cfg.Logger.Warn("persist state failed", slog.Any("error", err))
	}
}

// publish installs a new assessment snapshot and wakes waiters.
func (m *Monitor) publish(res *core.SocialResult, dirty core.DirtySet, full, recomputed bool) {
	m.mu.Lock()
	gen := uint64(1)
	if m.cur != nil {
		gen = m.cur.Generation + 1
	}
	cur := &Assessment{
		Result:     res,
		Generation: gen,
		UpdatedAt:  m.cfg.clock.Now(),
		CorpusSize: m.cfg.Store.Len(),
		Ingested:   m.ingested,
		FullRun:    full,
		Recomputed: recomputed,
		Dirty:      dirty,
	}
	m.cur = cur
	m.lastErr = nil
	if m.persistErr == nil {
		m.lastErrAt = time.Time{}
	}
	close(m.notify)
	m.notify = make(chan struct{})
	m.mu.Unlock()
	if met := m.cfg.Metrics; met != nil {
		met.Generations.Inc()
		if recomputed {
			met.Recomputes.Inc()
		}
	}
	level := slog.LevelDebug
	if full {
		level = slog.LevelInfo
	}
	m.cfg.Logger.Log(context.Background(), level, "assessment published",
		slog.Uint64("generation", cur.Generation),
		slog.Int("corpus", cur.CorpusSize),
		slog.Bool("full", full),
		slog.Bool("recomputed", recomputed))
}

// Assessment returns the current snapshot, or nil before the initial
// run completes.
func (m *Monitor) Assessment() *Assessment {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// LastError returns the most recent re-assessment failure (cleared by
// the next successful publication) or, absent one, the most recent
// state-persistence failure (cleared by the next successful save) — a
// monitor that serves fine but cannot restart warm still reports
// unhealthy.
func (m *Monitor) LastError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastErr != nil {
		return m.lastErr
	}
	return m.persistErr
}

// workflowError returns only re-assessment failures — the class a
// retry flush can actually fix.
func (m *Monitor) workflowError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// Store returns the watched ingest store.
func (m *Monitor) Store() *social.Store { return m.cfg.Store }

// WaitFor blocks until an assessment with Generation ≥ minGeneration is
// published or ctx ends, returning the snapshot that satisfied the
// wait.
func (m *Monitor) WaitFor(ctx context.Context, minGeneration uint64) (*Assessment, error) {
	for {
		m.mu.Lock()
		cur, wait := m.cur, m.notify
		m.mu.Unlock()
		if cur != nil && cur.Generation >= minGeneration {
			return cur, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wait:
		}
	}
}
