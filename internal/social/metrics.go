package social

import (
	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/obs"
)

// StoreMetrics is the store's recording surface: the domain counters
// spans cannot express — posts inserted, changefeed and durability
// telemetry. Per-call counts, errors and latency of Add and Search are
// the psp_trace_* series of the "store.add" and "store.search" spans
// (SetTracer), and the search fan-out is the "stripes" attribute of
// each "store.search" span. Every field is an obs recorder (atomic,
// nil-safe); the store holds the struct behind an atomic pointer, so an
// uninstrumented store pays one pointer load and a nil check per
// operation and nothing else.
type StoreMetrics struct {
	// AddedPosts counts posts inserted by Add.
	AddedPosts *obs.Counter
	// Changefeed publication volume.
	FeedBatches *obs.Counter
	FeedPosts   *obs.Counter
	// Durability: snapshot compactions and recovery (set by OpenStoreDir).
	Compactions       *obs.Counter
	CompactionErrors  *obs.Counter
	CompactionLatency *obs.Histogram
	// CompactionBytes / CompactedStripes measure incremental compaction
	// volume: snapshot bytes written and stripes rewritten. With
	// per-stripe dirty tracking they grow with the delta, not the corpus.
	CompactionBytes  *obs.Counter
	CompactedStripes *obs.Counter
	RecoverySeconds  *obs.Gauge
	RecoveredPosts   *obs.Gauge
	// Recovery phase breakdown: phase-labeled series of the same
	// psp_store_recovery_seconds family as the wall-clock total. Phase
	// times are summed across stripes (stripe loads run in parallel).
	// wal_replay covers both WAL passes: each log's CRC scan at open and
	// the replay of its tail above the snapshot floor.
	RecoverySnapshotSeconds *obs.Gauge // phase="snapshot_read"
	RecoveryIndexSeconds    *obs.Gauge // phase="index_load"
	RecoveryRebuildSeconds  *obs.Gauge // phase="index_rebuild"
	RecoveryReplaySeconds   *obs.Gauge // phase="wal_replay"
	// WAL is the per-stripe logs' shared surface (psp_wal_*).
	WAL *durable.LogMetrics

	reg *obs.Registry
}

// NewStoreMetrics registers the psp_store_* and psp_wal_* families in
// reg and returns the recording surface for one store. A nil registry
// yields an all-no-op surface.
func NewStoreMetrics(reg *obs.Registry) *StoreMetrics {
	return &StoreMetrics{
		AddedPosts:  reg.Counter("psp_store_added_posts_total", "Posts inserted by Store.Add."),
		FeedBatches: reg.Counter("psp_store_changefeed_batches_total", "Batches published to the changefeed."),
		FeedPosts:   reg.Counter("psp_store_changefeed_posts_total", "Posts published to the changefeed."),
		Compactions: reg.Counter("psp_store_compactions_total", "Snapshot compactions completed."),
		CompactionErrors: reg.Counter("psp_store_compaction_errors_total",
			"Snapshot compactions failed (retried next tick)."),
		CompactionLatency: reg.Histogram("psp_store_compaction_seconds", "Snapshot compaction latency.",
			obs.DefaultLatencyBuckets, obs.LatencyScale),
		CompactionBytes: reg.Counter("psp_store_compaction_bytes_total",
			"Snapshot bytes written by compactions (dirty stripes only)."),
		CompactedStripes: reg.Counter("psp_store_compaction_stripes_total",
			"Stripes rewritten by compactions (clean stripes are skipped)."),
		RecoverySeconds: reg.Gauge("psp_store_recovery_seconds",
			"Duration of the last OpenStoreDir recovery (snapshot load + WAL replay); phase-labeled series break it down, summed across parallel stripe loads."),
		RecoveredPosts: reg.Gauge("psp_store_recovered_posts",
			"Posts recovered by the last OpenStoreDir."),
		RecoverySnapshotSeconds: reg.Gauge("psp_store_recovery_seconds",
			"Duration of the last OpenStoreDir recovery (snapshot load + WAL replay); phase-labeled series break it down, summed across parallel stripe loads.",
			obs.Label{Key: "phase", Value: "snapshot_read"}),
		RecoveryIndexSeconds: reg.Gauge("psp_store_recovery_seconds",
			"Duration of the last OpenStoreDir recovery (snapshot load + WAL replay); phase-labeled series break it down, summed across parallel stripe loads.",
			obs.Label{Key: "phase", Value: "index_load"}),
		RecoveryRebuildSeconds: reg.Gauge("psp_store_recovery_seconds",
			"Duration of the last OpenStoreDir recovery (snapshot load + WAL replay); phase-labeled series break it down, summed across parallel stripe loads.",
			obs.Label{Key: "phase", Value: "index_rebuild"}),
		RecoveryReplaySeconds: reg.Gauge("psp_store_recovery_seconds",
			"Duration of the last OpenStoreDir recovery (snapshot load + WAL replay); phase-labeled series break it down, summed across parallel stripe loads.",
			obs.Label{Key: "phase", Value: "wal_replay"}),
		WAL: durable.NewLogMetrics(reg),
		reg: reg,
	}
}

// SetMetrics attaches (or, with nil, detaches) a recording surface.
// Per-call Add and Search latency comes from the tracer (SetTracer),
// not from this surface: a store with metrics but no tracer records
// no per-stage latency.
// Gauge-valued readings that need store state — live post count,
// changefeed backlog — register as exposition-time callbacks here, so
// the hot paths never maintain them. One StoreMetrics instance should
// observe one store (the callbacks bind to the last store attached).
func (s *Store) SetMetrics(m *StoreMetrics) {
	s.met.Store(m)
	if m == nil || m.reg == nil {
		return
	}
	m.reg.GaugeFunc("psp_store_posts", "Posts currently stored.",
		func() float64 { return float64(s.Len()) })
	m.reg.GaugeFunc("psp_store_changefeed_backlog_posts",
		"Posts queued for changefeed subscribers, summed across subscribers.",
		func() float64 { return float64(s.ChangefeedBacklog()) })
	m.reg.GaugeFunc("psp_store_changefeed_subscribers", "Live changefeed subscriptions.",
		func() float64 { return float64(len(s.subs.Load().subs)) })
	m.reg.GaugeFunc("psp_store_degraded",
		"1 while the store is in read-only degraded mode after a WAL failure, else 0.",
		func() float64 {
			if s.degraded.Load() != nil {
				return 1
			}
			return 0
		})
}

// Metrics returns the attached recording surface (nil when
// uninstrumented).
func (s *Store) Metrics() *StoreMetrics { return s.met.Load() }

// StoreStats is a typed point-in-time snapshot of the store's own
// state — the programmatic companion to the Prometheus exposition.
// Per-search stripe fan-out is not here: it is the "stripes" attribute
// of each "store.search" span.
type StoreStats struct {
	// Posts and Shards describe the corpus layout.
	Posts  int
	Shards int
	// ChangefeedSubscribers / ChangefeedBacklog describe the changefeed:
	// live subscriptions and posts queued but not yet taken (Feed.Next).
	ChangefeedSubscribers int
	ChangefeedBacklog     int
	// Durable reports whether the store runs on a write-ahead log;
	// WALRecords counts appends since the last snapshot compaction and
	// WALFloors is the current DurableCursor (nil when not durable).
	Durable    bool
	WALRecords int64
	WALFloors  DurableCursor
	// DirtyStripes counts stripes with records applied since their last
	// snapshot; CompactionBytes / CompactedStripes accumulate the
	// incremental compactor's write volume since open.
	DirtyStripes     int
	CompactionBytes  int64
	CompactedStripes int64
	// RecoveredIndexed / RecoveredRebuilt split the last open's stripes
	// by recovery path: installed from the snapshot's postings section
	// vs re-tokenized from its posts section.
	RecoveredIndexed int
	RecoveredRebuilt int
	// Degraded reports read-only degraded mode (see Store.Degraded);
	// DegradedCause is the triggering WAL failure, empty when healthy.
	Degraded      bool
	DegradedCause string
}

// Stats snapshots the store's observability counters.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Posts:                 s.Len(),
		Shards:                len(s.shards),
		ChangefeedSubscribers: len(s.subs.Load().subs),
		ChangefeedBacklog:     s.ChangefeedBacklog(),
	}
	if s.dur != nil {
		st.Durable = true
		st.WALRecords = s.dur.records.Load()
		st.WALFloors = s.dur.floors()
		for i := range s.dur.stripes {
			if s.dur.stripes[i].dirty.Load() != 0 {
				st.DirtyStripes++
			}
		}
		st.CompactionBytes = s.dur.compactedBytes.Load()
		st.CompactedStripes = s.dur.compactedStripes.Load()
		st.RecoveredIndexed = s.dur.recIndexed
		st.RecoveredRebuilt = s.dur.recRebuilt
	}
	if de := s.degraded.Load(); de != nil {
		st.Degraded = true
		st.DegradedCause = de.Cause.Error()
	}
	return st
}
