// Package monitor implements the continuous monitoring subsystem that
// turns the paper's one-shot Fig. 7 batch workflow into the ongoing
// cybersecurity monitoring activity ISO/SAE 21434 Clause 8 requires:
// TARA ratings refreshed as new threat intelligence arrives, not once
// per analysis campaign.
//
// The pipeline is changefeed → scheduler → cached assessment:
//
//   - the Monitor tails a social.Store changefeed (Store.Watch), so
//     every post ingested after it subscribes is observed exactly once
//     (the feed is live-only; a warm restart reads what it missed
//     through the store's durable cursor);
//   - each batch is classified once, on arrival: its posts come
//     profiled — tokenized by the store's ingest, not again here — and
//     are matched against the current assessment's keyword database
//     (learned tags included) and the threat scenarios to summarize the
//     dirty slice (core.DirtySet), and against the result cache's
//     listings. When the workflow queries the watched store
//     itself (Config.Searcher unset), a matched listing is patched with
//     its new posts; over any other backend it is dropped. A matched
//     fill means work is owed until the next successful workflow run;
//   - a batch that owes no work, arriving when nothing is owed or
//     pending and no retry is scheduled, publishes at once, whatever
//     the debounce, and records no schedule pass;
//   - every other batch is scheduled on a leading edge: an isolated
//     delta — one reaching an idle monitor, at least Config.Debounce
//     after the last flush ended — runs at once, while a burst
//     coalesces until Config.Debounce of quiet (bounded by
//     Config.MaxLag), and a failed flush retries with exponential
//     backoff;
//   - the scheduler re-runs the social workflow through the result
//     cache (core.Framework.RunSocialDelta), which recomputes only the
//     matched slices — a delta matching one keyword topic re-analyzes
//     one patched listing's new posts and rebuilds one SAI entry, while
//     everything else is served from memos, and the store is queried
//     only for listings never drained before;
//   - each refresh publishes an immutable Assessment snapshot carrying
//     the SocialResult plus freshness metadata (generation, update
//     time, corpus size, dirty slice, whether a recompute happened).
//
// Incremental refreshes are provably equivalent to a cold RunSocial
// over the merged corpus (the package tests pin byte-identical
// results); a delta that matches no cached query publishes a
// metadata-only generation at once, without touching the workflow or
// waiting on the debounce — it has nothing to coalesce.
//
// The API type serves the assessment over HTTP — POST /v1/posts for
// ingest, GET /v1/assessment for the current cached result (with an
// ETag keyed on the assessment generation; If-None-Match polling costs
// a 304 and no body between publications — and every batch that owes
// no work publishes one), and GET /v1/healthz — and
// ListenAndServe hosts any http.Server with graceful shutdown on
// context cancellation, shared by the pspd and sociald daemons.
//
// # Warm restart
//
// With Config.State set (FileStateStore behind pspd's -data-dir), the
// monitor persists a State after every publication that re-ran the
// workflow, and when it stops with metadata-only generations unsaved:
// the assessment's metadata (generation, publication instant, corpus
// size), the result cache — its listing fills as post IDs and its slice
// memos as per-post SAI features and keyword-group co-occurrence graphs
// — and the watched durable store's WAL cursor. The assessment's result
// is not saved: it is a deterministic function of that evidence. The
// cursor comes from Feed.Next, so it covers only posts the loop has
// taken and classified: a batch still pending on the changefeed when the
// monitor saves (or stops, which discards it) stays above it and is
// replayed by the restart. The file is a magic and three sections
// (metadata, fills, memos), each framed by its length and CRC-32C like
// every other snapshot the system writes, and it is replaced atomically.
// The next Run restores it — provided the signature of the input and of
// the framework's analysis configuration still matches, the cursor is
// still within the WAL's truncation horizon and every fill resolves —
// into the result cache, and asks the store for PostsSince(cursor): the
// posts the persisted state never saw. It then makes the same initial
// workflow run a cold start makes. Over the restored cache that run
// re-derives the saved result without a platform query or a tokenized
// post, and it publishes as the restored Assessment (Restored=true, the
// persisted generation and freshness). A non-empty catch-up delta runs
// through the normal incremental flush, and because the memos came back
// bound to their fills, that flush costs what it would have cost the
// process that saved the state: an untouched listing does no work, and a
// patched one tokenizes only its new posts. The catch-up delta is
// profiled here, and it may overlap the first live batches; patching
// skips the posts a listing already holds. An empty delta keeps the
// restored generation alive, so pollers' cached ETags stay valid across
// the restart. Any mismatch or damage — a failed checksum, a file in the
// older JSON layout — falls back to a cold initial run, whose first save
// replaces the file.
//
// A save runs after its publication, so it never delays what a poller
// sees, and it is traced as its own "monitor.save" span, a child of the
// flush it follows, carrying the image size in bytes: the flush span's
// self time is the path to publication, its duration that path plus the
// save. Each save encodes into one buffer sized from the previous
// image, allocated for that save alone.
//
// # Multi-tenant TARA
//
// TARAMonitor runs assessment-as-a-service over a tara.Registry: it
// tails tenant change notifications plus the social Monitor's
// assessment stream on the same schedule (an isolated change is rated
// at once, a burst within TARAConfig.Debounce of its first signal), and
// re-rates only the dirty tenants —
// and within each tenant, only the dirty threats — on the shared worker
// pool. Social threat tunings are bridged tenant-selectively: a new
// assessment generation mutates exactly the tenants whose analyses
// carry a tuned threat, so an unrelated tenant's published snapshot
// stays pointer-identical. The API serves the fleet under /v1/tara:
// GET /v1/tara lists tenants with versions; GET /v1/tara/{tenant}
// returns the current assessment with an ETag covering model version,
// rating generation and publication time (If-None-Match → 304);
// POST /v1/tara/{tenant} applies a JSON op batch with optional
// expect_version optimistic concurrency (mismatch → 409); PUT creates
// a tenant from an uploaded analysis document and DELETE retires it.
package monitor
