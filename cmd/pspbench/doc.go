// Command pspbench is the repository's benchmark: one load generator that
// boots the PSP pipeline in-process on loopback, runs a seeded,
// open-loop workload against it, checks every output, and prints each
// metric by name with its unit. It measures the ISO/SAE 21434 Clause 8
// loop pspd runs — ingest → WAL → changefeed → delta re-assessment →
// TARA re-rate — plus federated search and warm restart, end to end and
// layer by layer.
//
// # Running
//
// From the repository root:
//
//	bash cmd/pspbench/run.sh -workload ingest-cold -seed 1 -seconds 15
//	bash cmd/pspbench/run.sh -workload all -seed 1 -trace 1
//
// run.sh builds pspbench from the checkout (this directory is a Go
// module of its own, replacing the root module with ../..) and keeps the
// build cache, the binary and the booted systems' data directories
// under .bench_build. Inside this directory, "go run . -workload all"
// does the same with the default caches, and "go test -race ." runs the
// smoke test: every workload for about a second on small corpora.
//
// Flags: -workload (one of the four below, or all), -seed (every input
// derives from it), -seconds (the measured span, after a 3 s warm-up),
// -trace 1 (adds the per-layer pass). Every metric prints as a
// "class name value unit" line; the last line is a JSON summary
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
// Failed checks print as "check FAIL" lines, count in "failed", and make
// the command exit 1. BENCHMARK.json at the repository root declares
// the workloads and metrics; baseline.json here records the figures
// measured when the benchmark was introduced.
//
// # Load shape
//
// The generators run in the same process as the system. Each stream is
// one goroutine with one HTTP connection that sends one request at a
// time on a fixed schedule (open loop): request i is due at i/rate, the
// generator never sends early, and latency is timed from the due time,
// so a stall is charged to every request it delays rather than
// vanishing from the record. How late the generator ran is reported as
// gen_late_p50_ms and gen_late_max_ms: on a host whose idle CPUs are
// slow to wake, the median lateness is a fixed share of every latency
// timed from its due time. At most two requests are in flight (ingest-hot's
// two streams). Every run boots fresh systems, discards a 3 s warm-up
// and measures -seconds.
//
// The monitor debounce is 20 ms with a 200 ms MaxLag. At pspd's 200 ms
// default a 20 batch/s stream never goes quiet, so freshness would be
// pinned to MaxLag and the delta-run cost the benchmark must expose
// would be hidden. Stores compact on a 5 s timer, so every window holds
// the same number of background compactions.
//
// # Workloads
//
//	ingest-cold       POST /v1/posts, 8-post batches at 200/s. Posts carry
//	                  filler tags that match no monitored query; the
//	                  corpus grows from the 8.2k reference corpus by
//	                  1.6k posts/s. Why: the work is in store.add and
//	                  wal.append while the monitor publishes metadata-only
//	                  generations — the bypass case for monitor and core
//	                  changes, where freshness is timer-bound and must not
//	                  move.
//	ingest-hot        8-post batches at 20/s, every post on one of the two
//	                  largest monitored topics (#chiptuning, remap, … of
//	                  the ECM reprogramming topic TS-ECM-01 tracks;
//	                  #dpfdelete, …), plus POST /v1/tara/{ECM|BCM}
//	                  set_threat_table op batches at 5/s with
//	                  expect_version. Why: every flush invalidates fills
//	                  and re-runs RunSocialDelta, and the social bridge
//	                  and the ops re-rate tenants — the work is in
//	                  monitor.flush, internal/core, delta store.search and
//	                  tara.rate. A delta run outlasts the batch interval,
//	                  so the monitor runs back to back (busy_frac near 1)
//	                  and ingest latency shows the contention — too
//	                  unsteadily to gate on (see the end-to-end metrics).
//	search-federated  25 listings/s through a Multi over two sociald
//	                  backends, each holding its own 32k-post corpus, the
//	                  Multi armed with BackendTimeout, Partial and a
//	                  breaker, and 1 ms of RTT injected into every backend
//	                  request by a fault.RoundTripper. Queries come from a
//	                  seeded pool of 256: one tag, a must-term pair, or a
//	                  7-day window. A listing pages back-to-back, 50 per
//	                  page, for up to 4 keyset pages (at most 100
//	                  pages/s). Why: the read path alone (store.search,
//	                  client, server, merge), with no WAL, monitor or TARA
//	                  work.
//	restart-warm      Back-to-back cycles on a 32k-post durable directory
//	                  seeded once in setup: OpenSocialStore, a monitor
//	                  with its file state Run until the catch-up
//	                  assessment publishes, a 1k-post delta confined to two
//	                  day buckets ingested and assessed, Flush, Close. Why:
//	                  the work is in the sidecar open, the monitor restore
//	                  and incremental compaction, plus the first delta run
//	                  after a restart, which rebuilds the derivation memos
//	                  a restore does not persist. Each cycle runs on a
//	                  fresh, synced copy of the seeded directory (copied
//	                  outside the timed part), so every cycle reopens the
//	                  same state. Deltas piled up on one directory would
//	                  grow the store by as many deltas as a run's speed
//	                  fits in, and cycle cost and live heap would drift
//	                  with it.
//	                  5% of each delta is on the immobilizer-bypass topic
//	                  TS-IMMO-01 tracks, so its delta run re-assesses and
//	                  re-persists monitor.json as a monitored ingest does;
//	                  warm_ratio reports restores that fell back to cold.
//	                  On a shared 2-vCPU VM a 64k-post directory wrote
//	                  ~275 MB per run and slowed steadily across
//	                  back-to-back runs; 32k posts did not.
//
// Every booted system holds pspd's default reference corpus (seed 42):
// its learned keywords, and with them the work of every assessment,
// would change with the corpus seed. -seed drives the load — the posts,
// deltas, queries and ops — and the filler padding.
//
// # End-to-end metrics
//
// Untraced runs report four metrics on every workload; each has the
// workload's own meaning.
//
//	setup_s          boot to ready, median of three boots per run: the
//	                 pipeline's initial assessment and TARA fleet pass
//	                 (read with Monitor.WaitFor and TARAMonitor.Ready, not
//	                 by polling /v1/readyz), the two backends serving, or
//	                 the restart directory seeded and assessed cold
//	response_p50_ms  ingest acknowledgement (ingest-cold) | TARA op due →
//	                 first observed tenant assessment rating its version
//	                 (ingest-hot) | federated page | warm open (open call
//	                 → catch-up assessment published)
//	visible_p50_ms   ack → first published assessment whose Ingested
//	                 covers the batch (exact with one ingest in flight) |
//	                 first page due → listing drained | restart delta ack →
//	                 first assessment covering it
//	heap_live_mb     live heap after a forced GC, the system still up
//
// On a shared 2-vCPU VM, where a fixed CPU-bound loop itself ran 12–21%
// slower or faster from one 10–30 s window to the next, these spread
// (interquartile range over median, ten runs of the same code) up to
// 21% for ingest-cold's fsync-bound acknowledgement, 10–15% for
// ingest-hot's visible and restart-warm's CPU-bound latencies, and at
// most 7% for the rest; a host slowdown lasting minutes widened them
// past 25% when it covered four runs of ten. ingest-hot's ingest
// acknowledgement spread 18–40% there: the monitor runs delta after
// delta, the garbage collector runs about a third of the time, and the
// median acknowledgement falls where those waits make the latency
// distribution steep. It is a diagnostic on ingest-hot and gated on
// ingest-cold.
//
// Diagnostic lines use the workload's own names and are printed but not
// regression-gated: ingest_ack_p50_ms/p99, fresh_p50_ms/p99,
// tara_fresh_p50_ms/p90 (op ack → first observed tenant assessment at or
// past the acknowledged version), tara_rated_p50_ms (ingest-hot's
// response), search_page_p50_ms/p99, listing_p50_ms,
// warm_open_p50_ms/max, restart_fresh_p50_ms, write_amp (compaction
// bytes per ingested JSON byte), warm_ratio, gen_late_p50_ms/max and
// error_rate (failed ops and checks per attempted op). Tails repeat too
// loosely across runs to gate on.
//
// # Checks
//
// Every run checks its outputs; a mismatch fails the command:
//
//   - every acknowledged post is retrievable by ID at the end, and the
//     final assessment's Ingested equals the acknowledged posts;
//   - every acknowledged TARA op is rated, and each rating pass spends
//     exactly one engine rating call per dirty threat;
//   - every federated listing has the same IDs as the same query drained
//     on a union reference store built before the window;
//   - every reopened store has the Len and a sample of IDs it had at
//     the preceding close: the seeded directory's for a cycle's copy, and
//     for the untimed open after the window, the last cycle's (seed posts
//     and that cycle's delta).
//
// # Per-layer metrics
//
// -trace 1 runs an untraced pass and then a traced one on fresh boots.
// The traced pass records every span (sample rate 1) into a ring larger
// than the run's span count — a full ring fails the run. Benchmark spans
// (bench.ingest, bench.op, bench.page, bench.open, bench.restore,
// bench.delta, bench.flush, bench.close) wrap each call into a layer's
// public function; HTTP requests carry their traceparent, so the
// program's own spans nest under them. A span's self time is its
// duration minus the union of its synchronous children; a child that
// starts after its parent ended is an asynchronous link (the delta run
// linked under the ingest that triggered it). The self times of every
// ingest trace's stages must sum to its root within 1%
// (trace.selfsum_err_pct). Each figure, and the end-to-end metric and
// workload it should move:
//
//	http.ingest.self_ms_p50, .unattributed_ms_p50      response @ ingest-cold
//	    (server span self; client span minus server span)
//	store.add.calls, .self_ms_p50/p99/max              response @ ingest-cold
//	    (p99/max show whether the 1024-post base fold spikes writes)
//	store.search.calls, .self_ms_p50,                  response @ search-federated,
//	    .stripes_per_call, .scanned_per_post           visible @ ingest-hot
//	wal.append.ms_p50/p99, .records_per_fsync          response @ ingest-cold
//	compact.count, .bytes, .ms_p50                     write_amp @ restart-warm,
//	                                                   ingest-cold
//	open.ms_p50, .indexed_ratio                        response @ restart-warm
//	monitor.wait_ms_p50 (ack → flush start)            visible @ ingest-cold
//	monitor.flush.calls, .self_ms_p50/p99,             visible @ ingest-hot
//	    .recompute_ratio, .delta_posts_mean,
//	    monitor.busy_frac
//	monitor.restore.ms_p50, .warm_ratio                response @ restart-warm
//	core.delta.searches_per_flush,                     visible @ ingest-hot
//	    .invalidated_fills_per_flush
//	tara.rate.calls, .self_ms_p50, .rerate_ratio,      tara_fresh @ ingest-hot
//	    .rating_calls_per_op
//	multi.search.self_ms_p50, multi.backend.ms_p50/p99, response @ search-federated
//	    .retries, .breaker_skips, .degraded_pages,
//	    sociald.search.self_ms_p50
//	trace.overhead_pct (traced ÷ untraced response     the cost of tracing
//	    p50 − 1), trace.spans, trace.selfsum_err_pct
//	go.gc_cycles, .gc_pause_ms_total,                  heap_live_mb, response
//	    .heap_peak_mb, .goroutines_peak                @ every workload
//	    (runtime/metrics, sampled in the untraced pass)
//
// Compaction figures come from the store's counters and latency
// histogram, since background compactions have no span; a layer the
// workload does not exercise reports 0.
package main
