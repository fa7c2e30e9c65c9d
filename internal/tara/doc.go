// Package tara implements the Threat Analysis and Risk Assessment (TARA)
// methods defined by Clause 15 of ISO/SAE 21434:2021 "Road vehicles —
// Cybersecurity engineering".
//
// The package provides the four TARA process activities referenced by the
// PSP paper — asset identification, threat scenario identification, impact
// rating and attack path analysis — together with two of the three
// attack feasibility models defined by the standard:
//
//   - the attack potential-based approach (elapsed time, specialist
//     expertise, knowledge of the item, window of opportunity and
//     equipment; Annex G.2, reproduced as Fig. 3 of the paper), and
//   - the attack vector-based approach (Annex G.9, reproduced as Fig. 5).
//
// The third, CVSS-based approach (exploitability metrics of CVSS v3.1)
// is not implemented: the PSP paper re-tunes only the attack
// vector-based approach, and no analysis document, op or model selects
// CVSS.
//
// It also implements Cybersecurity Assurance Level (CAL) determination
// (Fig. 6) and the impact × feasibility risk matrix with risk treatment
// options.
//
// Only the attack vector table takes custom values (NewVectorTable, and
// per-threat overrides through SetThreatTable); the risk matrix and the
// CAL table are the standard's (StandardRiskMatrix, StandardCALTable).
// The inflexibility of the vector table's defaults is precisely the
// limitation the PSP framework addresses, and package sai produces
// re-tuned replacements for it.
//
// # Incremental rating
//
// An Analysis is no longer a batch script: Run validates once, builds
// ID indexes, and rates through a dirty tracker, so only threats whose
// inputs changed since the previous Run are re-rated. Mutations go
// through the typed mutation surface (UpsertAsset, UpsertDamage,
// UpsertThreat, UpsertPath, RemovePath, SetThreatTable, ...), which
// marks exactly the dependent threats dirty — an asset edit dirties the
// threats referencing it, a feasibility-table override dirties one
// threat. Unchanged threats are served from a memo map as pointer-
// identical ThreatResults, which keeps re-runs byte-identical to a cold
// run (the property tests pin this at several pool sizes) while doing
// O(dirty) rating work. RatingCalls exposes the monotonic count of
// actual rating computations for tests and monitoring.
//
// Plan/Rate/Commit splits a Run for callers that schedule their own
// parallelism: Plan snapshots the dirty set, Rate(id) computes one
// threat (safe to call concurrently), and Commit merges rated results
// deterministically and clears the dirty marks. core.Framework.RunTARA
// drives this over the shared worker pool.
//
// # Multi-tenant registry
//
// A Registry hosts many independent assessments — one Tenant per item
// or ECU. Each tenant guards its Analysis behind a versioned mutation
// API: Mutate applies a function atomically and bumps the version;
// MutateAt additionally compares an expected version first and fails
// with ErrVersionMismatch, the optimistic-concurrency token the HTTP
// layer maps to 409. Rate publishes an immutable TenantAssessment
// snapshot behind an atomic pointer, so readers never block a rater.
// Ops (ApplyOps, DecodeOps) give mutations a JSON wire form for the
// /v1/tara API.
package tara
