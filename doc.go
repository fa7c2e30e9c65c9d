// Package psp is the public facade of the PSP framework — an
// implementation of "PSP Framework: A novel risk assessment method in
// compliance with ISO/SAE-21434" (Oberti, Sanchez, Savino, Parisi,
// Di Carlo; DSN 2023).
//
// The PSP framework augments the static Threat Analysis and Risk
// Assessment (TARA) models of ISO/SAE 21434 with two dynamic inputs:
//
//   - social sentiment: a Social Attraction Index (SAI) computed over
//     attack-related social-media posts retunes the standard's
//     attack-vector feasibility tables for insider threat scenarios; and
//   - financial exposure: market value, break-even and adversary
//     fixed-cost equations turn market data into an attack feasibility
//     rating and a security budget the product must withstand.
//
// # Quick start
//
//	fw, err := psp.NewDefault(42) // reference corpus + market dataset
//	if err != nil { ... }
//	res, err := fw.RunSocial(ctx, psp.SocialInput{
//	    Application: "excavator",
//	    Region:      psp.RegionEurope,
//	})
//	top, _ := res.Index.Top() // "DPF delete"
//
// The facade re-exports the domain types of the internal packages
// (tara, social, sai, finance, market, core, report) so downstream users
// program against a single import path. The workflows are
// deterministic: they take explicit seeds and explicit time windows,
// and the continuous monitor reads time only through its clock.
//
// # Scaling
//
// The social workflow's platform queries fan out across a bounded
// worker pool — set Config.Concurrency (default GOMAXPROCS, 1 for
// strictly sequential) to overlap round trips to a remote platform.
// Results are deterministic at any setting. The in-process store
// stripes its corpus across shards keyed by CreatedAt time bucket
// (NewSocialStoreShards; the daemons expose -shards) and serves reads
// entirely lock-free: each shard publishes an immutable copy-on-write
// snapshot of its time, tag and term indices behind an atomic pointer,
// writers build successors aside and commit with one pointer swap, so
// a search never blocks a writer and a committing writer never stalls
// a search. Duplicate detection runs on a hash-striped ID registry —
// no store-global lock on the ingest path. Queries whose Since/Until
// window spans fewer time buckets than there are stripes visit only
// the stripes those buckets occupy (window→stripe pruning), and
// term-filtered queries walk an inverted term index with tag unions
// via a k-way merge of sorted postings. Federated searches
// (NewMultiPlatform) query every backend concurrently. Listings page
// with keyset cursors (resume after a (CreatedAt, ID) key) and stream:
// every shard seeks its sorted indices to the cursor by binary search
// and the page merge stops at MaxResults+1 posts, so a page costs
// O(page + seek) rather than O(matches) — and queries that do not need
// Page.TotalMatches set Query.SkipTotal to skip the count walk
// entirely. Pagination stays stable while posts are ingested
// concurrently; the offset tokens of earlier releases are retired.
// Shard count never changes results — listings are byte-identical at
// any setting.
//
// # Continuous monitoring
//
// ISO/SAE 21434 Clause 8 frames risk assessment as an ongoing
// activity, and the monitoring subsystem makes the batch workflow
// continuous: SocialStore.Watch exposes a live changefeed of ingested
// posts, taken on the consumer's goroutine (the catch-up after a
// restart is SocialStore.DurableCursor and PostsSince, not the feed),
// a Monitor (NewMonitor) tails it,
// classifies each delta into
// the affected keyword topics and threats (DirtySet), and
// re-runs just the dirty slice of the workflow through a ResultCache —
// cached listings kept exact by the query predicate plus memoized
// per-topic co-occurrence graphs, SAI entries, threat tunings and
// per-post SAI features. The feed delivers each post with the tag and
// term sets the store tokenized it into at ingest, and a listing the
// delta matches is patched with its new posts (the store is
// append-only) rather than re-drained, so a delta run reads and
// tokenizes only the delta. Each post is tokenized for analysis once
// per listing it enters: a patched listing reuses the features of
// every post it already held and extends its co-occurrence graph by
// the added posts, so an incremental refresh costs O(delta
// tokenization) + O(listing arithmetic) — summing memoized features
// over the touched listings — rather than re-analyzing every listed
// post. Incremental refreshes
// are provably identical to a cold RunSocial over the merged corpus
// (see Framework.RunSocialDelta). A delta that owes no work — it
// matches no cached listing — publishes a metadata-only assessment at
// once, whatever the debounce: the debounce coalesces workflow re-runs
// only. An isolated delta that does owe work — one arriving at an idle
// monitor, at least the debounce interval after the last refresh
// ended — is assessed the moment it lands; a burst waits for the
// debounce interval of quiet and is assessed once, with MaxLag
// bounding a continuous stream. The TARAMonitor schedules re-rating
// with the same policy, its burst bound being one debounce interval.
// The pspd daemon serves the resulting Assessment over HTTP — ingest,
// cached SAI/TARA results with freshness metadata, health — with
// graceful shutdown via ListenAndServeGraceful. GET /v1/assessment
// answers conditional requests (ETag keyed on the assessment
// generation / If-None-Match → 304), so fleet dashboards poll for free
// between rating changes.
//
// # Multi-tenant TARA
//
// The rating engine itself is incremental and multi-tenant. An
// Analysis validates once, tracks dirty threats through its typed
// mutation surface, and re-rates only those on the next Run — with
// unchanged threats served as pointer-identical memoized results, so
// an incremental re-run is byte-identical to a cold run at a fraction
// of the cost. A TARARegistry (NewTARARegistry) hosts one versioned
// Tenant per item or ECU: mutations are atomic closures with optional
// compare-and-set on the model version (ErrTenantVersionMismatch), and
// each rating pass publishes an immutable TenantAssessment snapshot
// lock-free. A TARAMonitor (NewTARAMonitor) keeps the whole fleet
// fresh: it rates an isolated tenant mutation or social assessment
// generation at once and debounces bursts of them, re-rates only dirty
// tenants on the shared worker pool,
// and applies social threat tunings tenant-selectively. pspd serves it
// under /v1/tara — tenant directory, per-tenant assessments with
// ETag/304 polling, JSON op mutations with expect_version → 409, PUT/
// DELETE tenant lifecycle — and boots a reference fleet derived from
// the paper's Fig. 4 vehicle architecture (ReferenceArchitecture,
// DeriveTARARegistry): one tenant per ECU with topology-derived attack
// paths whose content-addressed identities keep memoized ratings
// stable across topology edits (SyncTARAPaths).
//
// # Durability
//
// Clause 8 monitoring only counts if it survives restarts, so the
// store and the monitor both persist. OpenSocialStore runs a store on
// a crash-safe engine (internal/durable): every Add appends to its
// time-bucket stripe's segmented write-ahead log — CRC-framed records,
// group commit, one fsync acknowledging every append written on that
// stripe since the previous fsync began — before it touches an index, a background pass compacts the
// stripes that absorbed writes into one binary snapshot file each —
// posts and posting lists in two CRC-framed sections — and truncates
// old WAL segments. Reopening the directory recovers snapshot + WAL
// tail (torn tails truncated, never fatal) into listings byte-identical
// to the acknowledged pre-crash state: a damaged postings section is
// re-tokenized from its posts, a damaged posts section fails the open
// with the file named, and a directory from an older layout is refused
// untouched with the -dump/-corpus migration route in the error. The
// monitor persists its own state alongside (MonitorConfig.State,
// NewMonitorFileState), in the same CRC-framed sections: the
// assessment's metadata, the result cache's fills (post IDs) and slice
// memos (per-post features and co-occurrence graphs), and the store
// cursor. A restarted pspd therefore re-derives its previous assessment
// from the restored cache without a platform query and serves it at
// once — same generation, same ETag — and catches up with one
// incremental delta run over the posts ingested past the cursor, which
// re-analyzes only posts the saved cache never saw, instead of a cold
// full workflow. The
// daemons expose all of this as -data-dir; JSON Lines corpus dumps
// (WriteSocialPostsFile, sociald -dump) are atomic — temp file, fsync,
// rename — so no crash can leave a half-written corpus.
//
// # Observability
//
// Every stage of the pipeline is instrumented through a
// zero-dependency metrics core (internal/obs, re-exported as
// MetricsRegistry and friends) that matches the store's lock-free
// ethos: counters and gauges are single atomics, histograms are
// fixed-bucket atomic arrays with exposition-time p50/p99 estimation,
// and the registry publishes immutable copy-on-write snapshots so a
// scrape never blocks recording. Attach a surface to a store
// (SocialStore.SetMetrics, SocialDurableOptions.Metrics — psp_store_*
// and psp_wal_*), a monitor (MonitorConfig.Metrics — psp_monitor_*),
// or a TARA fleet (TARAMonitorConfig.Metrics — psp_tara_*), and serve
// it all as a Prometheus text exposition (MetricsHandler; pspd and
// sociald mount GET /v1/metrics). These surfaces hold the domain
// counters spans cannot express (posts inserted, compaction bytes,
// delta sizes); each stage's call count, error count and latency is
// the psp_trace_* series of its span (store.add, store.search,
// monitor.flush, tara.rate — see Distributed tracing), which appear at
// the stage's first span. HTTP routes wrap in NewHTTPMetrics
// middleware — per-route status-class counters, latency histograms,
// X-Request-ID correlation flowing into structured log/slog lines —
// and the same state is available programmatically as typed snapshots
// (SocialStore.Stats, TARARegistry.Stats). pspd separates liveness
// (/v1/healthz, always 200) from readiness (/v1/readyz, 503 until the
// initial assessment and TARA rating pass land). The instrumented hot
// paths stay within a few percent of bare (BenchmarkStoreConcurrentMixed,
// obs=on against obs=off).
//
// # Distributed tracing
//
// On top of the metrics core sits a zero-dependency span tracer
// (NewTracer) with per-query cost attribution across the whole
// pipeline. Spans thread through context.Context, record into a
// bounded lock-free ring, and sample at the head: the keep/drop coin
// is flipped once per root (TracerOptions.SampleRate; the daemons
// expose -trace-sample) and inherited by children, while failed
// spans, spans over the slow threshold (-slow-ms) and force-sampled
// spans are always kept — and every finished span, sampled or not,
// feeds the psp_trace_* metrics. Traces cross the federation hop via
// the W3C traceparent header: the HTTP middleware continues an
// inbound header and the social client injects one per attempt, so a
// federated page through pspd and the sociald backends it queries is
// one trace, each backend's server span retrievable from its own
// GET /v1/trace endpoint by the shared trace ID. Attribution covers
// every stage — ingest (store.add posts/inserted, wal.append
// stripes/records/group size), search (store.search stripes visited,
// postings scanned, delta size), federation (multi.search and
// per-backend multi.backend spans with retry, breaker-skip and
// degraded-page decisions as events), and the asynchronous tail: the
// monitor's debounced flush links into the ingest trace that
// triggered it (delta size, matched fills, dirty topics/threats)
// and each tenant re-rate records a tara.rate span (dirty threats,
// rating calls). Wire it with SocialStore.SetTracer,
// MonitorConfig.Tracer, TARAMonitorConfig.Tracer, MultiOptions.Tracer
// and NewHTTPMetrics().WithTracer / MonitorAPI.WithTracing; spans
// serve as JSON from GET /v1/trace (TraceHandler). Unsampled spans
// cost one atomic coin flip, keeping the default configuration within
// a few percent of bare (BenchmarkTracingOverhead).
//
// # Resilience and graceful degradation
//
// Every dependency failure has a declared contract, and a chaos suite
// (deterministic, seedable fault injection via internal/fault: disk
// faults through the WAL's filesystem seam, transport faults under the
// HTTP client, flaky platform backends) proves each one under -race.
// The contracts, innermost out:
//
//   - Disk: a persistent WAL write or fsync failure is sticky — the
//     log refuses later appends rather than risk forging a record on a
//     torn tail — and the durable store above it degrades to read-only
//     instead of crashing. Ingest returns ErrSocialDegraded
//     (errors.Is-matchable, carrying cause and onset), while every
//     previously acknowledged post keeps serving: search, pagination,
//     the changefeed and the monitor's cached assessments stay live.
//     pspd answers ingest with 503 + Retry-After, reports the cause on
//     /v1/healthz and fails /v1/readyz. A restart recovers the
//     acknowledged state byte-identically (torn tails truncated) and
//     resumes writes if the disk healed. Acknowledged-means-durable is
//     never weakened: no fault schedule, torn write or crash loses an
//     acknowledged batch.
//   - Remote platform: the social HTTP client retries transient
//     failures (transport errors, 502/503/504) with capped, jittered
//     exponential backoff, honors 429 Retry-After, and aborts any wait
//     promptly on context cancellation.
//   - Federation: MultiOptions (NewMultiPlatformOptions) bounds each
//     federated page with a shared deadline, opts into partial mode —
//     pages with at least one healthy backend serve the healthy merge,
//     marked Degraded with per-backend health annotations, and keep
//     paginating so recovered backends rejoin on later pages — and
//     arms a per-backend circuit breaker that fails fast after
//     consecutive failures and re-closes through a half-open probe.
//   - Monitor: a failed re-assessment never poisons the served
//     picture — the last good assessment keeps serving with the
//     failure exposed via LastError and psp_monitor_* metrics, and the
//     monitor's own backoff retry converges after the platform heals
//     without requiring new ingest.
//
// All resilience seams are pay-for-use: with no injector bound and no
// fault firing, the federated and ingest hot paths stay within a few
// percent of their bare twins (BenchmarkResilienceSeams).
package psp
