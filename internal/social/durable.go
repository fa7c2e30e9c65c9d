package social

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/obs"
)

// Durable store layout under a data directory:
//
//	<dir>/MANIFEST.json                    snapshot manifest (durable.Manifest)
//	<dir>/snap/stripe-<i>-<gen>.snap       one snapshot per non-empty stripe (see snapfile.go)
//	<dir>/wal/stripe-<i>/*.seg             one segmented WAL per lock stripe
//
// A snapshot file carries its stripe's posts and posting lists in two
// CRC-framed sections, and it is the only snapshot copy of those posts
// (snapfile.go explains why one copy is the design). The open refuses
// directories whose manifest predates this layout (version < 3) before
// touching them; the error names the -dump/-corpus migration route.
//
// Every stripe owns its own log with its own group-commit fsync queue,
// so concurrent ingest across stripes never serializes on one disk
// queue — the per-stripe share-nothing property of the in-memory Add
// path extends to durability. A batch is acknowledged once every
// touched stripe's sub-batch is fsync'd; only then does it commit to
// the in-memory indices, so an acknowledged Add can never be lost. An
// Add interrupted mid-batch (a crash, or a log failing with some
// stripes already fsync'd) resolves to the disk truth: exactly the
// sub-batches whose records are durable surface — by recovery replay,
// or immediately via the partial-insert error path — and never a post
// that reached no log.

// DurableOptions tunes OpenStoreDir.
type DurableOptions struct {
	// Shards is the stripe count for a fresh data directory (≤ 0 uses
	// DefaultShards). An existing directory's manifest is authoritative:
	// a non-zero Shards that disagrees with it is an error, because the
	// bucket→stripe mapping decides which log holds which post.
	Shards int
	// SegmentBytes is the WAL segment roll threshold
	// (durable.DefaultSegmentBytes when 0).
	SegmentBytes int64
	// CompactEvery is the background snapshot-compaction period
	// (default 30s; negative disables the background pass — Flush and
	// Close still compact).
	CompactEvery time.Duration
	// CompactRecords triggers an early compaction once this many WAL
	// records accumulated since the last snapshot (default 8192;
	// negative disables the record trigger).
	CompactRecords int
	// Seed supplies the initial corpus for a directory that has never
	// completed seeding. It runs after recovery, writes through the WAL,
	// compacts into the first snapshot, and is recorded with a marker
	// file — so a crash mid-seed resumes (already-durable posts are
	// skipped by ID) instead of silently serving a partial corpus, and
	// a completed directory never re-seeds.
	Seed func() ([]*Post, error)
	// Metrics, when set, is attached to the store before recovery: the
	// stripe logs record into its WAL surface, recovery duration and
	// recovered post count land in its gauges, and the opened store
	// behaves as if SetMetrics had been called.
	Metrics *StoreMetrics
	// FS, when set, replaces the filesystem beneath the stripe WALs'
	// segment writes (durable.LogOptions.FS) — the disk-fault injection
	// seam the chaos tests drive (internal/fault.FS).
	FS durable.FS
}

const (
	walDirName          = "wal"
	snapDirName         = "snap"
	seededMarker        = "SEEDED"
	defaultCompactEvery = 30 * time.Second
	defaultCompactRecs  = 8192
)

// DurableCursor is a position in a durable store's write-ahead logs:
// one replay floor per stripe. The monitor persists it alongside its
// assessment so a restarted daemon can ask for exactly the posts that
// arrived after the persisted state (PostsSince) instead of re-running
// cold.
type DurableCursor []uint64

// durStripe tracks one stripe's durable-but-unapplied WAL sequences.
// The log's OnDurable hook registers sequences in order (on the log's
// writer goroutine), Add removes them after the in-memory commit, and
// the floor — the highest sequence below which everything is applied —
// is what snapshots record: a post the indices have not absorbed yet
// can never be truncated out of the WAL.
type durStripe struct {
	mu         sync.Mutex
	maxDurable uint64
	pending    map[uint64]struct{}
	// dirty counts WAL records applied to the in-memory indices since
	// the stripe's last snapshot (plus force-dirty markers from fallback
	// recovery); non-zero is what makes a compaction rewrite the stripe.
	// markApplied adds after the index commit, compact subtracts exactly
	// the count it captured — records landing mid-compaction keep the
	// stripe dirty for the next pass instead of being lost to a blind
	// reset.
	dirty atomic.Int64
}

// storeDurability is a Store's persistence engine: per-stripe logs, the
// manifest, and the background compactor.
type storeDurability struct {
	dir  string
	logs []*durable.Log

	stripes []durStripe

	// records counts WAL appends since the last snapshot; the kick
	// channel wakes the compactor early once CompactRecords accumulate.
	records    atomic.Int64
	compactRec int64
	kick       chan struct{}

	// cmu serializes compaction, manifest replacement, WAL truncation
	// and PostsSince scans. compactErr remembers the most recent
	// compaction failure (cleared by the next success) so background
	// failures — which are retried every tick while the records
	// counter stays non-zero — are observable, not silent.
	cmu        sync.Mutex
	man        *durable.Manifest
	compactErr error

	// Cumulative incremental-compaction volume (bytes written, stripes
	// rewritten) and the last recovery's per-stripe outcome split —
	// exposed through StoreStats so tests and benchmarks can assert the
	// delta-bounded behavior without a metrics registry.
	compactedBytes   atomic.Int64
	compactedStripes atomic.Int64
	recIndexed       int
	recRebuilt       int

	stop      chan struct{}
	done      chan struct{}
	loop      bool // background compactor running
	closeOnce sync.Once
	closeErr  error
}

// OpenStoreDir opens (or initializes) a durable store in dir and
// recovers its contents: each stripe's snapshot file is read and its
// posts and search indices are installed directly — warm open is a file
// read plus a varint scan, no re-tokenization — then each stripe's WAL
// tail above the manifest's floor is replayed (torn or corrupt tail
// records are truncated, never fatal). A stripe whose postings section
// is damaged, or whose posts route elsewhere in this store, is
// re-tokenized from its posts section and compacted again at the next
// pass; a damaged posts section fails the open, naming the file. A
// directory whose manifest predates the single-file layout is refused
// before anything in it is written or removed. The returned store
// behaves exactly like an in-memory one, plus: Add acknowledges only
// after its batch is fsync'd (group commit), a background pass compacts
// dirty stripes into snapshots, and Close flushes. Search results are
// byte-identical to an in-memory store holding the same posts.
func OpenStoreDir(dir string, opts DurableOptions) (*Store, error) {
	man, err := durable.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, snapDirName), 0o755); err != nil {
		return nil, fmt.Errorf("social: create data dir: %w", err)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if man != nil {
		if opts.Shards > 0 && opts.Shards != man.Shards {
			return nil, fmt.Errorf("social: data dir %s was created with %d shards, not %d (the stripe mapping decides which log holds which post)", dir, man.Shards, opts.Shards)
		}
		shards = man.Shards
	} else {
		man = &durable.Manifest{
			Version:   durable.ManifestVersion,
			Shards:    shards,
			Floors:    make([]uint64, shards),
			Snapshots: make([]string, shards),
		}
		if err := man.Write(dir); err != nil {
			return nil, err
		}
	}

	recoverStart := time.Now()
	s := NewStoreShards(shards)
	s.SetMetrics(opts.Metrics)
	d := &storeDurability{
		dir:        dir,
		logs:       make([]*durable.Log, shards),
		stripes:    make([]durStripe, shards),
		compactRec: int64(opts.CompactRecords),
		kick:       make(chan struct{}, 1),
		man:        man,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if d.compactRec == 0 {
		d.compactRec = defaultCompactRecs
	}
	for i := range d.stripes {
		d.stripes[i].pending = make(map[uint64]struct{})
	}

	// Snapshots first: they hold everything at or below the floors. One
	// parallel load per stripe: stripe loads are independent — distinct
	// shards, and the ID registry is stripe-locked — so the bounded
	// fan-out is safe.
	snapDir := filepath.Join(dir, snapDirName)
	var phases recoveryPhases
	errs := make([]error, shards)
	forEachBounded(shards, func(i int) {
		errs[i] = d.loadStripe(s, snapDir, man.Snapshots[i], i, &phases)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	removeOrphanSnapshots(snapDir, man)

	// Then each stripe's WAL tail. Replay overlaps the snapshot by up
	// to one segment (truncation is whole-segment) and may overlap it
	// further when the floor was taken conservatively mid-ingest, so
	// records are deduplicated by post ID.
	fail := func(err error) (*Store, error) {
		for _, log := range d.logs {
			if log != nil {
				log.Close()
			}
		}
		return nil, err
	}
	var walMetrics *durable.LogMetrics
	if opts.Metrics != nil {
		walMetrics = opts.Metrics.WAL
	}
	for i := 0; i < shards; i++ {
		i := i
		log, err := durable.OpenLog(d.stripeDir(i), durable.LogOptions{
			SegmentBytes: opts.SegmentBytes,
			OnDurable:    func(seq uint64) { d.onDurable(i, seq) },
			Metrics:      walMetrics,
			FS:           opts.FS,
		})
		if err != nil {
			return fail(err)
		}
		d.logs[i] = log
		t0 := time.Now()
		replayed := int64(0)
		err = log.Replay(man.Floors[i], func(_ uint64, payload []byte) error {
			replayed++
			return replayBatch(s, payload)
		})
		phases.replay.Add(int64(time.Since(t0)))
		if err != nil {
			return fail(fmt.Errorf("social: replay stripe %d: %w", i, err))
		}
		d.stripes[i].maxDurable = log.LastSeq()
		if replayed > 0 {
			d.stripes[i].dirty.Add(replayed)
		}
	}

	s.dur = d
	d.recIndexed = int(phases.indexed.Load())
	d.recRebuilt = int(phases.rebuilt.Load())
	if m := opts.Metrics; m != nil {
		m.RecoverySeconds.Set(time.Since(recoverStart).Seconds())
		m.RecoveredPosts.Set(float64(s.Len()))
		m.RecoverySnapshotSeconds.Set(phases.snapshot.seconds())
		m.RecoveryIndexSeconds.Set(phases.load.seconds())
		m.RecoveryRebuildSeconds.Set(phases.rebuild.seconds())
		m.RecoveryReplaySeconds.Set(phases.replay.seconds())
	}
	if opts.Seed != nil {
		if err := d.seed(s, opts.Seed); err != nil {
			for _, log := range d.logs {
				log.Close()
			}
			return nil, err
		}
	}
	every := opts.CompactEvery
	if every == 0 {
		every = defaultCompactEvery
	}
	if every > 0 {
		d.loop = true
		go d.compactLoop(s, every)
	}
	return s, nil
}

// seed runs the one-time corpus seed: skipped once the marker exists;
// otherwise the seed posts stream through the WAL (minus any already
// durable from a crashed earlier attempt), compact into the first
// snapshot, and only then does the marker commit — a kill -9 at any
// point either resumes or finds the seed complete, never a silently
// partial corpus.
func (d *storeDurability) seed(s *Store, seed func() ([]*Post, error)) error {
	marker := filepath.Join(d.dir, seededMarker)
	if _, err := os.Stat(marker); err == nil {
		return nil
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("social: stat seed marker: %w", err)
	}
	posts, err := seed()
	if err != nil {
		return fmt.Errorf("social: seed corpus: %w", err)
	}
	fresh := posts[:0]
	for _, p := range posts {
		if p != nil && s.Post(p.ID) == nil {
			fresh = append(fresh, p)
		}
	}
	if err := s.Add(fresh...); err != nil {
		return fmt.Errorf("social: seed corpus: %w", err)
	}
	if err := d.compact(s); err != nil {
		return err
	}
	return durable.WriteFileAtomic(marker, func(w io.Writer) error {
		_, err := io.WriteString(w, "seed complete\n")
		return err
	})
}

// stripeDir is stripe i's WAL directory.
func (d *storeDurability) stripeDir(i int) string {
	return filepath.Join(d.dir, walDirName, fmt.Sprintf("stripe-%04d", i))
}

// phaseNanos accumulates one recovery phase's duration in nanoseconds.
type phaseNanos struct{ atomic.Int64 }

func (p *phaseNanos) seconds() float64 { return float64(p.Load()) / 1e9 }

// recoveryPhases breaks one recovery down by phase: snapshot files read
// and their posts decoded, postings decoded and installed, fallback
// re-tokenization, WAL replay — plus the per-stripe outcome split.
// Stripe loads run in parallel, so phase times are summed across
// stripes (CPU seconds); the top-level recovery gauge stays wall-clock.
type recoveryPhases struct {
	snapshot phaseNanos // snapshot files read + posts sections decoded
	load     phaseNanos // postings sections decoded + installed
	rebuild  phaseNanos // fallback re-tokenization
	replay   phaseNanos // WAL tails replayed
	indexed  atomic.Int64
	rebuilt  atomic.Int64
}

// loadStripe recovers one stripe from its snapshot file. The posts
// section is load-bearing: unreadable or invalid fails the open, naming
// the stripe and the file. The postings section is derived: when it is
// damaged, or the posts are out of order or route to other stripes of
// this store, the stripe is re-tokenized from the decoded posts through
// Add and left dirty so the next compaction writes a fresh file.
// Mis-routed posts land wherever shardFor routes them now, so that case
// dirties every stripe.
func (d *storeDurability) loadStripe(s *Store, snapDir, name string, i int, ph *recoveryPhases) error {
	if name == "" {
		return nil
	}
	path := filepath.Join(snapDir, name)
	t0 := time.Now()
	data, err := os.ReadFile(path)
	var posts []*Post
	var postings []byte
	if err == nil {
		posts, postings, err = decodeSnapshotPosts(data)
	}
	ph.snapshot.Add(int64(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("social: stripe %d snapshot %s: %w", i, path, err)
	}
	t0 = time.Now()
	ordered := stripeOrdered(s, posts, i)
	if ordered {
		var g *shardGen
		if g, err = decodePostings(postings, posts); err == nil {
			err = s.installStripeBase(i, g)
		}
	}
	ph.load.Add(int64(time.Since(t0)))
	if ordered && err == nil {
		ph.indexed.Add(1)
		return nil
	}
	t0 = time.Now()
	err = s.Add(posts...)
	ph.rebuild.Add(int64(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("social: stripe %d snapshot %s: %w", i, path, err)
	}
	ph.rebuilt.Add(1)
	if ordered {
		d.stripes[i].dirty.Add(1)
	} else {
		for j := range d.stripes {
			d.stripes[j].dirty.Add(1)
		}
	}
	return nil
}

// stripeOrdered reports whether posts all route to stripe i of this
// store and ascend strictly in (CreatedAt, ID) — the precondition for
// installing them as stripe i's base generation.
func stripeOrdered(s *Store, posts []*Post, i int) bool {
	for k, p := range posts {
		if s.shardFor(p.CreatedAt) != i || (k > 0 && !postLess(posts[k-1], p)) {
			return false
		}
	}
	return true
}

// installStripeBase publishes g as stripe i's base generation and
// registers its posts in the ID registry — the warm-open path that
// bypasses tokenization entirely. Posts are bucketed by ID stripe
// first so each registry lock is taken once per bucket, not once per
// post. A duplicate ID means the snapshot claims a post some other
// snapshot already holds; the install rolls its own registrations back
// (by pointer identity, so a concurrent stripe's entries are never
// touched) and reports, leaving the registry as it found it so the
// caller's re-tokenizing fallback starts clean.
func (s *Store) installStripeBase(i int, g *shardGen) error {
	var buckets [idStripes][]*Post
	per := len(g.byTime)/idStripes + 1
	for _, p := range g.byTime {
		k := idStripeOf(p.ID)
		if buckets[k] == nil {
			buckets[k] = make([]*Post, 0, per)
		}
		buckets[k] = append(buckets[k], p)
	}
	var dup error
	for k, ps := range buckets {
		if len(ps) == 0 {
			continue
		}
		st := &s.ids[k]
		st.mu.Lock()
		for _, p := range ps {
			if _, seen := st.posts[p.ID]; seen {
				dup = snapErrf("duplicate post ID %s", p.ID)
				break
			}
			st.posts[p.ID] = p
		}
		st.mu.Unlock()
		if dup != nil {
			break
		}
	}
	if dup != nil {
		for k, ps := range buckets {
			if len(ps) == 0 {
				continue
			}
			st := &s.ids[k]
			st.mu.Lock()
			for _, p := range ps {
				if st.posts[p.ID] == p {
					delete(st.posts, p.ID)
				}
			}
			st.mu.Unlock()
		}
		return dup
	}
	sh := s.shards[i]
	sh.mu.Lock()
	sh.snap.Store(&shardSnapshot{base: g, delta: emptyGen})
	sh.mu.Unlock()
	return nil
}

// replayBatch applies one WAL record — a JSON batch of posts — to the
// store, skipping posts the snapshot (or an earlier record) already
// delivered.
func replayBatch(s *Store, payload []byte) error {
	var posts []*Post
	if err := json.Unmarshal(payload, &posts); err != nil {
		// Payloads were validated before they were logged and are
		// CRC-protected on disk; an undecodable one is a logic error
		// worth surfacing, not silently dropping.
		return fmt.Errorf("decode wal batch: %w", err)
	}
	fresh := posts[:0]
	for _, p := range posts {
		if p == nil || s.Post(p.ID) != nil {
			continue
		}
		fresh = append(fresh, p)
	}
	return s.Add(fresh...)
}

// removeOrphanSnapshots deletes every snapshot-directory entry the
// manifest does not name: the files of a compaction that crashed before
// committing its manifest, the temp files of a write that crashed
// inside WriteFileAtomic, and anything else that is not current state.
// It runs at open, after the stripes loaded and before the compactor
// starts, so nothing can be writing there. Removal is best-effort: an
// entry that survives is retried at the next open.
func removeOrphanSnapshots(snapDir string, man *durable.Manifest) {
	keep := make(map[string]bool, len(man.Snapshots))
	for _, name := range man.Snapshots {
		keep[name] = true
	}
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !keep[e.Name()] {
			os.RemoveAll(filepath.Join(snapDir, e.Name()))
		}
	}
}

// onDurable registers a fsync'd-but-unapplied sequence. It runs on the
// stripe log's writer goroutine, in sequence order — the order matters:
// a floor read between two registrations must always see every durable
// sequence that is not yet applied.
func (d *storeDurability) onDurable(stripe int, seq uint64) {
	st := &d.stripes[stripe]
	st.mu.Lock()
	st.maxDurable = seq
	st.pending[seq] = struct{}{}
	st.mu.Unlock()
}

// walChunkPosts caps the posts per WAL record: a stripe sub-batch
// larger than this splits into several records, so even a whole-corpus
// seed Add stays far below durable.MaxRecordBytes (recovery replays
// multiple records exactly like one).
const walChunkPosts = 4096

// errEncode marks a logParts failure that happened while encoding the
// batch, before it reached a log — a per-batch problem, not disk
// damage, so it must not flip the store into degraded mode.
var errEncode = errors.New("social: encode wal batch")

// logParts appends each stripe's sub-batch to its log, blocking until
// every one is fsync'd (each append group-commits with whatever other
// batches are in flight on that stripe). It returns the parts whose
// records are durable: on a mid-batch failure that is a strict prefix,
// and the caller must still commit that prefix — it is on disk and
// would resurface at the next recovery regardless. span (nil-safe)
// receives the cost attribution: records logged and the largest commit
// group any of them rode — how well group commit amortized the wait.
func (d *storeDurability) logParts(parts []*stripePart, span *obs.Span) (logged []*stripePart, err error) {
	records, maxGroup := 0, 0
	defer func() {
		span.SetInt("records", int64(records))
		span.SetInt("group_max", int64(maxGroup))
	}()
	for i, part := range parts {
		for lo := 0; lo < len(part.profiles); lo += walChunkPosts {
			hi := min(lo+walChunkPosts, len(part.profiles))
			payload, err := json.Marshal(postsOf(part.profiles[lo:hi]))
			if err != nil {
				err = fmt.Errorf("%w: %v", errEncode, err)
			} else {
				var res durable.AppendResult
				res, err = d.logs[part.stripe].Append(payload)
				if err == nil {
					part.seqs = append(part.seqs, res.Seq)
					records++
					if res.Group > maxGroup {
						maxGroup = res.Group
					}
					continue
				}
			}
			// A partially logged part counts as logged: some of its
			// chunks are durable. Truncate it to the durable posts so
			// the commit matches the disk exactly. The durable chunks
			// still count toward the compaction trigger.
			d.records.Add(int64(records))
			if len(part.seqs) > 0 {
				part.profiles = part.profiles[:lo]
				return parts[:i+1], err
			}
			return parts[:i], err
		}
	}
	if d.records.Add(int64(records)) >= d.compactRec && d.compactRec > 0 {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
	return parts, nil
}

// markApplied clears a batch's sequences from the pending sets once the
// in-memory commit made them searchable, and counts them toward their
// stripes' dirty totals — applied records are exactly what the next
// compaction must fold into those stripes' snapshots. The dirty add
// comes after the commit, so a compaction that observed the count has
// also observed the committed data in the shard snapshot it dumps.
func (d *storeDurability) markApplied(parts []*stripePart) {
	for _, part := range parts {
		st := &d.stripes[part.stripe]
		st.mu.Lock()
		for _, seq := range part.seqs {
			delete(st.pending, seq)
		}
		st.mu.Unlock()
		st.dirty.Add(int64(len(part.seqs)))
	}
}

// anyDirty reports whether any stripe has records applied (or a
// force-dirty marker set) since its last snapshot.
func (d *storeDurability) anyDirty() bool {
	for i := range d.stripes {
		if d.stripes[i].dirty.Load() != 0 {
			return true
		}
	}
	return false
}

// floors returns, per stripe, the highest sequence with everything at
// or below it applied to the in-memory indices. Conservative by
// construction: an in-flight batch (durable, not yet committed) holds
// the floor below its sequence, so a snapshot taken now is a superset
// of every floor — replay after recovery deduplicates the overlap.
func (d *storeDurability) floors() DurableCursor {
	out := make(DurableCursor, len(d.stripes))
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		f := st.maxDurable
		for seq := range st.pending {
			if seq-1 < f {
				f = seq - 1
			}
		}
		st.mu.Unlock()
		out[i] = f
	}
	return out
}

// compactLoop is the background snapshot pass: every period (or early,
// once CompactRecords WAL appends accumulate) it dumps the live store
// and truncates the logs.
func (d *storeDurability) compactLoop(s *Store, every time.Duration) {
	defer close(d.done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
		case <-d.kick:
		}
		if !d.anyDirty() {
			continue // nothing applied since the last snapshot
		}
		// Errors are retried next tick (the dirty counters only drain
		// on success) and reported through Store.CompactionError.
		_ = d.compact(s)
	}
}

// compact takes one snapshot generation, rewriting only the dirty
// stripes — those with WAL records applied since their last snapshot:
// capture each stripe's dirty count and the floors, dump the dirty
// stripes' live generations lock-free (ingest keeps committing
// throughout), write one snapshot file per dirty stripe, atomically
// publish the new manifest, then drop WAL segments wholly below the
// floors. Clean stripes carry their previous snapshot entry AND their
// previous floor verbatim — a record applied between the dirty capture
// and the floor read is missing from the carried-over snapshot, so
// advancing a clean stripe's floor could truncate an applied record
// out of the WAL before any snapshot holds it. With no dirty stripe at
// all, compact returns without writing a byte (the idle early-exit). A
// crash at any point leaves either the old manifest (plus orphan files
// cleaned at next open) or the new one — never a state that loses an
// acknowledged batch.
func (d *storeDurability) compact(s *Store) (err error) {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	defer func() { d.compactErr = err }()
	// Dirty counts first: a record applied after this capture stays
	// counted, keeping its stripe dirty for the next pass even though
	// this pass may already include its data.
	dirty := make([]int64, len(d.stripes))
	idle := true
	for i := range d.stripes {
		dirty[i] = d.stripes[i].dirty.Load()
		if dirty[i] != 0 {
			idle = false
		}
	}
	if idle {
		return nil
	}
	if m := s.met.Load(); m != nil {
		t0 := time.Now()
		defer func() {
			if err != nil {
				m.CompactionErrors.Inc()
				return
			}
			m.Compactions.Inc()
			m.CompactionLatency.ObserveSince(t0)
		}()
	}
	// Floors before the dump: everything at or below a floor is applied,
	// hence included in any snapshot taken afterwards.
	floors := d.floors()
	// The records counter is drained only after the manifest commits: a
	// failed compaction leaves it non-zero, so the record-count trigger
	// keeps retrying instead of concluding there is nothing to snapshot.
	drained := d.records.Load()
	gen := d.man.Gen + 1
	snapDir := filepath.Join(d.dir, snapDirName)
	snaps := make([]string, len(d.stripes))
	newFloors := make([]uint64, len(d.stripes))
	var written int64
	var compacted int64
	var newFiles []string
	fail := func(err error) error {
		for _, f := range newFiles {
			os.Remove(filepath.Join(snapDir, f))
		}
		return err
	}
	for i := range d.stripes {
		if dirty[i] == 0 {
			snaps[i] = d.man.Snapshots[i]
			newFloors[i] = d.man.Floors[i]
			continue
		}
		newFloors[i] = floors[i]
		compacted++
		sn := s.shards[i].view()
		g := sn.base
		if len(sn.delta.byTime) > 0 {
			g = foldGens(sn.base, sn.delta, nil)
		}
		if len(g.byTime) == 0 {
			continue // an empty stripe needs no file; its entry stays empty
		}
		name := fmt.Sprintf("stripe-%04d-%08d.snap", i, gen)
		n, err := writeSnapshotFile(filepath.Join(snapDir, name), g)
		if err != nil {
			return fail(err)
		}
		written += n
		newFiles = append(newFiles, name)
		snaps[i] = name
	}
	next := &durable.Manifest{
		Version:   durable.ManifestVersion,
		Shards:    len(d.logs),
		Gen:       gen,
		Floors:    newFloors,
		Snapshots: snaps,
	}
	if err := next.Write(d.dir); err != nil {
		return fail(err)
	}
	// Manifest committed: the files it replaced are garbage now.
	for i, old := range d.man.Snapshots {
		if old != "" && old != snaps[i] {
			os.Remove(filepath.Join(snapDir, old))
		}
	}
	d.man = next
	d.records.Add(-drained)
	for i := range d.stripes {
		if dirty[i] != 0 {
			d.stripes[i].dirty.Add(-dirty[i])
		}
	}
	d.compactedBytes.Add(written)
	d.compactedStripes.Add(compacted)
	if m := s.met.Load(); m != nil {
		m.CompactionBytes.Add(uint64(written))
		m.CompactedStripes.Add(uint64(compacted))
	}
	for i, log := range d.logs {
		if err := log.TruncateBefore(newFloors[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces a snapshot compaction of the dirty stripes now (and
// with it WAL truncation). When nothing was applied since the last
// snapshot it returns without writing anything. On an in-memory store
// it is a no-op.
func (s *Store) Flush() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.compact(s)
}

// Close stops the background compactor, takes a final snapshot, and
// closes the write-ahead logs; a store reopened after a clean Close
// recovers from the snapshot alone. Concurrent Adds racing a Close may
// fail with a closed-log error (and are then not inserted). On an
// in-memory store Close is a no-op. Idempotent.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	d := s.dur
	d.closeOnce.Do(func() {
		close(d.stop)
		if d.loop {
			<-d.done
		}
		d.closeErr = d.compact(s)
		for _, log := range d.logs {
			if err := log.Close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
	})
	return d.closeErr
}

// closeAbrupt is the crash-test hook: it releases the file handles
// without the final snapshot, leaving the directory exactly as a
// kill -9 would — snapshot from the last compaction plus a WAL tail.
func (s *Store) closeAbrupt() {
	d := s.dur
	d.closeOnce.Do(func() {
		close(d.stop)
		if d.loop {
			<-d.done
		}
		for _, log := range d.logs {
			log.Close()
		}
	})
}

// CompactionError returns the most recent snapshot-compaction failure,
// cleared by the next successful compaction — the health signal for a
// daemon whose WAL keeps growing because snapshots cannot be written.
// Nil on an in-memory store.
func (s *Store) CompactionError() error {
	if s.dur == nil {
		return nil
	}
	s.dur.cmu.Lock()
	defer s.dur.cmu.Unlock()
	return s.dur.compactErr
}

// DurableCursor returns the store's current WAL position (per-stripe
// floors): every post applied so far sits at or below it, and every
// post ingested later sits above it. Nil on an in-memory store.
func (s *Store) DurableCursor() DurableCursor {
	if s.dur == nil {
		return nil
	}
	return s.dur.floors()
}

// PostsSince returns the stored posts whose WAL records sit above the
// cursor, in (CreatedAt, ID) order — the delta a consumer that
// persisted the cursor has not seen. It fails when the cursor predates
// the WAL's truncation horizon (the consumer's state is too old to
// catch up incrementally) or when the store is not durable.
func (s *Store) PostsSince(c DurableCursor) ([]*Post, error) {
	if s.dur == nil {
		return nil, fmt.Errorf("social: store has no write-ahead log")
	}
	d := s.dur
	if len(c) != len(d.logs) {
		return nil, fmt.Errorf("social: cursor has %d stripes, store has %d", len(c), len(d.logs))
	}
	d.cmu.Lock() // exclude concurrent truncation
	defer d.cmu.Unlock()
	seen := make(map[string]bool)
	var out []*Post
	for i, log := range d.logs {
		if first := log.FirstSeq(); c[i]+1 < first {
			return nil, fmt.Errorf("social: cursor stripe %d at %d predates wal horizon %d", i, c[i], first)
		}
		err := log.Replay(c[i], func(_ uint64, payload []byte) error {
			var posts []*Post
			if err := json.Unmarshal(payload, &posts); err != nil {
				return fmt.Errorf("decode wal batch: %w", err)
			}
			for _, p := range posts {
				if p == nil || seen[p.ID] {
					continue
				}
				seen[p.ID] = true
				if live := s.Post(p.ID); live != nil {
					out = append(out, live)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("social: replay stripe %d: %w", i, err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return postLess(out[i], out[j]) })
	return out, nil
}
