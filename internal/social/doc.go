// Package social implements the social-media substrate that replaces the
// Twitter APIs used by the PSP paper's prototype.
//
// It provides an in-memory post store with hashtag, time and inverted
// term indices, a query engine (keyword, hashtag, region and time-window
// filters with pagination), a changefeed (Watch) for the continuous
// monitoring subsystem, a deterministic synthetic corpus generator
// whose topic trends are calibrated to the case studies reported in the
// paper, and an HTTP JSON search API — server and client — so the
// framework exercises the same remote-service code path as the prototype
// (pagination, rate limiting, transport errors).
//
// Sharding and snapshots: the Store stripes its corpus across N shards
// keyed by CreatedAt time bucket — bucket b = floor(CreatedAt / one UTC
// day) lives on shard b mod N (NewStoreShards; NewStore picks
// DefaultShards). Each shard publishes an immutable snapshot of its
// time, hashtag and term indices behind an atomic pointer: two
// generations, a large compacted base plus a small delta absorbing
// recent commits (folded into a fresh base once the delta outgrows its
// bound), every posting list sorted in (CreatedAt, ID) order within its
// generation. Reads are lock-free — Search loads one coherent snapshot
// per visited stripe and streams it, so an in-flight page never delays
// a writer and a committing writer never stalls a reader. Writers hold
// their stripe's mutex only against other writers: Add builds the
// successor snapshot aside (small commits copy O(delta) index entries,
// not O(shard)) and commits it with a single pointer swap. A batch
// spanning several stripes becomes searchable stripe by stripe, exactly
// as if split into per-stripe Adds — keyset listings stay skip- and
// duplicate-free regardless, and the changefeed still delivers the
// batch as one unit. Duplicate detection, Post and Len run on a global
// ID registry striped across 64 hash-keyed mutexes, so the ingest path
// takes no store-global lock at all. The shard count never changes a
// result — listings are byte-identical at any N — it only sets how many
// writers commit concurrently.
//
// Window→stripe pruning: a query window [Since, Until) covers a
// contiguous run of time buckets, and every bucket lives on stripe
// (bucket mod N). When the run is shorter than one round of stripes,
// Search maps the window to its bucket set and visits only the stripes
// that set occupies — a narrow delta query (the monitor's dominant
// shape) touches O(window) stripes instead of all N, and stripes that
// cannot hold matches are skipped without even loading their snapshot.
//
// Indexing: Store.Add ingests posts in batches (one index merge per
// touched shard rather than a per-post insertion sort) and maintains
// the time index, the hashtag index and the inverted term index all in
// (CreatedAt, ID) posting order. Term-only queries (the paper's
// target-application filter) walk the rarest term's postings, and tag
// unions k-way merge their sorted postings, so query cost tracks the
// matching posts instead of the corpus size.
//
// Pagination: listings resume with keyset tokens —
// "k<unix-nanoseconds>.<base64url(post ID)>", the (CreatedAt, ID) key of
// the last delivered post (see EncodeCursor). A page picks up strictly
// after that key, so concurrent Add can neither shift posts across page
// boundaries (duplicates) nor hide them (skips): every post present when
// the drain started is delivered exactly once. Pages stream: each shard
// seeks its sorted postings to the cursor and the Since/Until window by
// binary search and yields matches lazily, and the merge stops at
// MaxResults+1 posts — per-page cost is O(page + seek), never a
// materialized match set. TotalMatches is counted index-side for
// unfiltered, single-tag and single-term windowed queries by bound
// subtraction (O(log n)) — the per-shard per-tag counts are the sorted
// posting lists themselves — and sublinearly for multi-term and
// two-tag queries: multiple must-terms intersect their posting lists
// with galloping seeks pivoting on the rarest term, and a two-tag
// union counts by inclusion–exclusion (|A| + |B| − |A∩B|), so both
// track the rarest list instead of the candidate walk. Callers that do
// not need the total set
// Query.SkipTotal (HTTP: skip_total=1) to skip the count walk entirely,
// making every filtered page fully O(page + seek); SearchAll does so
// automatically. The offset tokens ("o<offset>") of earlier releases
// are retired; they addressed a position in a live listing and went
// stale whenever a write landed before the position. Parsing one now
// returns a deprecation error.
//
// Changefeed: Store.Watch returns a live-only Feed. Every batch whose
// Add begins after the subscription is queued on it exactly once and
// whole, posts in (CreatedAt, ID) order, each as the
// PostProfile Add indexed it under, so no consumer tokenizes it
// again. Add publishes while still holding its shard writer locks —
// after its snapshot swaps — so batches whose stripe sets overlap
// arrive in commit order; publication loads the copy-on-write
// subscriber set atomically, and registration swaps that set under a
// registry mutex without touching writers or lock-free readers. The
// feed never replays stored posts: catch-up after a restart is the
// durable cursor's job (DurableCursor, then Watch, then PostsSince,
// which covers every post the feed did not). The consumer waits on
// Feed.Ready, a coalescing signal, and takes everything pending with
// Feed.Next, on its own goroutine; pending posts wait only in the
// feed's queue, so the backlog gauge counts exactly the posts not yet
// taken. Add queues a batch on the feed before the
// WAL floors move past it, and Next reads the floors before it takes,
// so the cursor Next returns covers only posts already taken — the
// cursor a consumer that checkpoints its progress persists.
// The continuous monitoring subsystem (internal/monitor) tails this
// feed to re-assess only the affected keyword topics as new posts
// arrive.
//
// Federation: Multi fans a query out to every platform backend
// concurrently. Each federated page fetches one bounded slice per
// backend past the shared keyset cursor — the pre-cursor listing is
// never re-drained — and merges the heads into one (CreatedAt, ID)
// ordered page with platform-namespaced post IDs.
//
// Partial failure: by default a federated page is all-or-nothing — one
// failing backend fails the page. NewMultiOptions changes the
// contract. MultiOptions.BackendTimeout bounds every backend's share
// of a page with one shared deadline. MultiOptions.Partial opts into
// partial-results mode: a page with at least one healthy backend
// serves the healthy merge, marked Page.Degraded with per-backend
// health in Page.Backends (populated only on degraded pages; a healthy
// federated page carries no annotations and costs the same as the bare
// path). A degraded page that contains posts always carries a
// NextToken, so a listing keeps paging through an outage and backends
// that recover rejoin on later pages — keyset cursors never move
// backwards, so posts the failed backend held during the outage window
// are not replayed. TotalMatches sums healthy backends only, and a
// page on which every backend fails is still an error.
// MultiOptions.BreakerThreshold arms a per-backend circuit breaker:
// after that many consecutive failures the backend is skipped
// (fail-fast, reported as ErrBackendSkipped in its annotation) until
// BreakerCooldown elapses, then one half-open probe either closes the
// breaker or re-opens it for another cooldown. Context cancellation by
// the caller never counts as a backend failure; a deadline expiry
// does.
//
// Remote resilience: the HTTP Client retries transient failures —
// transport errors and 502/503/504 — with exponential backoff
// (Client.RetryBase doubling up to Client.RetryMax, jittered), honors
// 429 Retry-After waits, and bounds both by Client.MaxRetries; every
// wait aborts promptly on context cancellation. WithFault wraps any
// Searcher with a fault.Injector, and fault.RoundTripper sits under
// the Client's transport, so the chaos suite drives flaky backends and
// dying connections through the same code paths production traffic
// takes.
//
// Degraded mode: a durable store whose WAL reports a persistent write
// or fsync failure flips read-only instead of crashing — the first
// cause wins and sticks. Add (and ingest endpoints above it) refuse
// with a *DegradedError matching errors.Is(err, ErrDegraded), while
// every acknowledged post keeps serving: Search, Post, Len, Watch and
// the monitor's cached assessments all remain live, and Stats reports
// Degraded plus its cause for health surfaces (pspd answers ingest
// with 503 + Retry-After and fails readiness). Restarting the process
// recovers the acknowledged state through the normal WAL recovery path
// and, if the disk has healed, resumes writes.
//
// Durability: OpenStoreDir runs a store on the crash-safe engine of
// internal/durable. Each stripe owns a segmented write-ahead log; Add
// appends its per-stripe sub-batches (CRC-framed JSON, group-committed
// and fsync'd, off the commit critical section) before the snapshot
// swap makes them searchable, so an acknowledged Add survives kill -9
// and an unacknowledged one never half-surfaces. Snapshots are per
// stripe: each non-empty stripe persists one binary snapshot file (see
// snapfile.go for the on-disk format) with two CRC-framed sections, its
// posts and its position-encoded posting lists. A warm open installs
// each stripe's posts and indices as a file read — no re-tokenization —
// and stripes load in parallel, so reopening a large corpus costs
// milliseconds instead of a full index rebuild. Compaction is incremental and delta-bounded:
// per-stripe dirty counters track which stripes absorbed records since
// their last snapshot, a pass rewrites only those stripes (an idle
// pass writes nothing at all, not even a manifest), clean stripes keep
// their files and floors verbatim, and WAL segments wholly below the
// new floors are truncated.
//
// The two sections fail differently. The postings section is derived
// data: when its CRC or structure is bad, or the posts' order or
// routing disagrees with the opening store, that stripe is
// re-tokenized from its decoded posts and marked dirty so the next
// compaction rewrites it. The posts section is the only snapshot copy
// of the stripe's posts, by design (snapfile.go gives the reasoning):
// a missing file, a bad header or a bad posts section fails the open
// with an error naming the stripe and the file, as does two snapshot
// files claiming the same post ID. Directories written before this
// layout (manifest Version 0 or 2) are refused, untouched, with an
// error naming the -dump/-corpus migration route. The open removes
// every snapshot-directory entry the manifest does not name, including
// the temp files of a compaction that crashed mid-write.
// Recovery runs in two parallel passes over the stripes. The first
// opens each stripe's log, whose CRC scan truncates a torn tail, and
// reads and decodes the stripe's posts section. The ID registry is then
// sized once from the decoded total, and the second pass installs each
// stripe's indices (or re-tokenizes it). Only after every snapshot is
// installed does the open replay each stripe's WAL tail above its
// floor, in stripe order, deduplicating the (deliberately conservative)
// overlap by post ID.
// DurableCursor and PostsSince expose the WAL position to consumers
// that checkpoint their own progress — the monitor persists the cursor
// with its assessment and catches up incrementally after a restart.
// WritePostsFile/WriteStoreFile are the atomic (temp + fsync + rename)
// JSON Lines dumps — the interchange format, never a recovery input; a
// reader can never observe a truncated file.
//
// Determinism: the generator derives everything from an explicit seed;
// two runs with the same seed and spec produce identical corpora, and
// search results are (CreatedAt, ID)-ordered at any concurrency.
package social
