// Package core implements the PSP framework itself: the orchestration of
// the two workflows the paper defines.
//
// The social workflow (Fig. 7) takes a target application, region and
// time window, queries the social platform with the attack keyword
// database, auto-learns new keywords, computes the Social Attraction
// Index, classifies entries insider/outsider, and regenerates the
// ISO/SAE 21434 attack-vector feasibility tables with SAI-derived
// corrective factors for the insider threat scenarios supplied by the
// product security team. The platform queries — keyword groups,
// post-learning re-queries and per-threat tunings — fan out across a
// worker pool sized by Config.Concurrency (default GOMAXPROCS);
// results are assembled in input order, so output is identical at any
// concurrency and the sequential behaviour returns at Concurrency 1.
//
// The social workflow also has a delta-aware entry point,
// RunSocialDelta, backing the continuous monitoring subsystem
// (internal/monitor): platform queries are served through a ResultCache
// whose listings are kept exact by the query predicate as posts
// arrive — a listing a new post matches is patched with it when the
// post was ingested into the cache's own backend store, and dropped
// for a re-drain otherwise — and every per-slice derivation —
// keyword-group co-occurrence graphs, SAI entries, threat tunings — is
// memoized against its listing's fill identity. A run after a small
// ingest delta recomputes only the slices the delta can affect, reads
// the store only for listings it has never drained, and produces a
// result identical to a cold RunSocial over the merged corpus. A
// recomputed slice reads its fill in place — no paging back out of the
// cache — and matches its previous posts with one merge walk over the
// two (CreatedAt, ID)-ordered listings, so it tokenizes only the posts
// new to its listing. The cache is also what a restart persists
// (ExportFills, ExportMemos, ImportFills): a delta run over a restored
// cache re-derives the saved result without a platform query or a
// tokenized post, so the result itself is never serialized.
//
// The financial workflow (Fig. 10) estimates the potential attacker
// population (PAE) from sales data and annual reports, mines marketplace
// listings for the purchase price per insider attack (PPIA) and the
// variable cost (VCU), computes the market value (MV), and derives the
// adversary investment bound (FC) through the break-even equations,
// mapping the result onto an ISO-21434 attack feasibility rating.
package core
