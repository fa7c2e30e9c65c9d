// Package durable is the crash-safe storage engine under the social
// store and the monitoring daemon: a segmented, append-only write-ahead
// log with group commit, a snapshot manifest, and atomic file
// replacement. It knows nothing about posts or assessments — payloads
// are opaque byte slices — so the social package layers its own batch
// encoding on top (see internal/social's durability notes).
//
// # Write-ahead log
//
// A Log is one directory of numbered segment files. Every record is
// framed as
//
//	offset 0  uint32 little-endian  payload length in bytes
//	offset 4  uint32 little-endian  CRC-32C (Castagnoli) of the payload
//	offset 8  payload
//
// Records carry no explicit sequence number: a record's sequence is the
// segment's first sequence plus the record's index within the segment.
// Sequences start at 1 and are dense — every written record gets the
// next sequence, assigned under the log's write lock as it is written.
//
// # Segments
//
// Segment files are named "<first-sequence>.seg" with the sequence
// zero-padded to 20 digits ("00000000000000000001.seg"), so the
// lexical order of file names is the sequence order. A segment rolls
// once it exceeds LogOptions.SegmentBytes; rolling creates the next
// segment named after the next unassigned sequence and fsyncs the
// directory so the new name survives a crash. Only whole segments are
// ever deleted (TruncateBefore), which is what makes WAL truncation
// after a snapshot a pair of unlink calls rather than a rewrite.
//
// # Group commit
//
// Append runs on its caller's goroutine: it frames and writes its
// record under the log's write lock, then waits for an fsync that began
// after the write. When none is in flight, the appender leads one
// itself, releasing the lock around the fsync; records written
// meanwhile form the next commit group, which one of their appenders
// leads once the fsync ends. So N concurrent appenders share fsyncs
// instead of paying one each, and a lone appender pays no batching
// delay. A record becomes visible to Replay and LastSeq only once its
// fsync succeeded; a failed write or fsync is sticky and no record it
// covers is acknowledged. A roll first commits the active segment's
// records as an ordinary group and never closes a segment under an
// in-flight fsync. The OnDurable hook runs on the appender that led
// the commit, in sequence order, after the fsync and before the
// acknowledgement; the social store uses it to register every
// durable-but-unapplied sequence so snapshot floors never claim a
// record the in-memory indices have not absorbed yet.
//
// # Recovery rules
//
// Opening a log validates it back to front-of-corruption:
//
//   - Segments are scanned in name order. A record with an impossible
//     length, a CRC mismatch, or a short read (the torn tail of a
//     crashed write) ends the scan: the file is truncated to the last
//     valid record and every later segment is deleted. Torn or corrupt
//     tails are truncated, never fatal. The scan only checks records,
//     so it streams each payload through the CRC in fixed 64 KiB reads
//     and never holds a record whole; a multi-megabyte record costs the
//     open no allocation of its size.
//   - A gap in the segment chain (a missing file) ends the log at the
//     gap: later segments are deleted, because their sequences could
//     not be trusted.
//   - An empty segment file (created by a roll that crashed before the
//     first record) is valid and simply contributes zero records.
//
// Acknowledged appends are fsync'd by definition, so none of this can
// drop an acknowledged record — only unacknowledged tail writes are at
// risk, and those are exactly what the rules discard. Damage that
// appears after the open is not repaired: Replay fails when a segment
// yields fewer records than it acknowledged, rather than end early as
// if the log were complete.
//
// # Disk-fault policy
//
// A failed segment write or fsync is sticky: the log records the first
// error and fails that append, every written record no successful
// fsync has covered, and every later append with it, permanently,
// until the process reopens the log. The log never retries past a
// write error, because after a short or failed write the on-disk tail
// position is unknown — appending again could interleave a new frame
// with the torn remains of the old one and forge a record that
// recovery would trust. Refusing is safe by
// construction: the failed batch was never acknowledged, the tail the
// failure left behind is exactly the damage the recovery scan
// truncates, and reopening re-derives the true end of the log from
// disk. Callers see the policy as one persistent error class; the
// social store maps it to read-only degraded mode rather than crashing
// (see internal/social). The write path reaches disk only through the
// FS seam (LogOptions.FS, default OSFS) — internal/fault.FS implements
// it to inject write errors, fsync failures and torn tails through the
// real commit path, which is how the chaos suite proves all of the
// above.
//
// # Snapshot manifest
//
// A Manifest (MANIFEST.json in the store's data directory) records,
// per stripe, the current snapshot file and the replay floor: the
// highest sequence known to be fully reflected in that stripe's
// snapshot. Each non-empty stripe names exactly one file, holding its
// posts and its search indices in two checksummed sections (the format
// belongs to the layer above; see internal/social). Recovery loads
// each stripe's snapshot, then replays every WAL record with a
// sequence above that stripe's floor; records at or below a floor that
// still exist on disk (truncation is whole-segment) are skipped, and
// replayed posts that the snapshot already contains are deduplicated by
// ID. The manifest is replaced atomically (WriteFileAtomic), so a crash
// mid-compaction leaves either the old manifest (and orphaned new
// stripe files or temp files, removed at next open) or the new one —
// never a torn file.
//
// Version skew is explicit: LoadManifest accepts only ManifestVersion
// (3). Older directories — Version 0 with one whole-corpus JSON Lines
// snapshot, Version 2 with a JSON Lines posts file plus an index
// sidecar per stripe — are refused before anything in them is touched,
// with an error naming the -dump/-corpus migration route; a Version
// from the future is refused rather than misread. Because clean
// stripes keep their files and floors verbatim across a compaction, a
// manifest may mix stripe entries written by different compaction
// passes — each entry is self-contained, so that mix is the normal
// steady state, not a repair case.
package durable
