package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Record framing constants (see the package documentation for the
// on-disk layout).
const (
	recordHeaderSize = 8
	// MaxRecordBytes bounds a single payload. The bound exists so a
	// corrupt length field read during recovery is recognized as
	// corruption instead of provoking a multi-gigabyte allocation.
	MaxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the segment roll threshold when
	// LogOptions.SegmentBytes is zero.
	DefaultSegmentBytes = 4 << 20

	segSuffix = ".seg"
)

// crcTable is the Castagnoli polynomial table shared by writers and
// recovery scans.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append on a closed log.
var ErrClosed = errors.New("durable: log closed")

// LogOptions tunes one write-ahead log.
type LogOptions struct {
	// SegmentBytes is the size past which the active segment rolls
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// OnDurable, when set, runs for every appended record — in sequence
	// order, after the fsync that covered it, before the append is
	// acknowledged. It runs on the appender that led the commit, which
	// holds back every other commit meanwhile, so it must not call back
	// into the log.
	OnDurable func(seq uint64)
	// Metrics, when set, records append/fsync latency, group sizes and
	// segment churn. Share one instance across a store's stripe logs to
	// aggregate.
	Metrics *LogMetrics
	// FS, when set, replaces the real filesystem beneath segment writes
	// (default OSFS). The seam exists for fault injection: tests wrap it
	// to force write/fsync failures and torn tails through the real
	// commit path.
	FS FS
}

// segment is one on-disk segment file.
type segment struct {
	first uint64 // sequence of the segment's first record
	count int    // records in the segment
	path  string
}

// Log is a segmented append-only write-ahead log with group commit.
// Append is safe for concurrent use; Replay and TruncateBefore may run
// concurrently with appends.
type Log struct {
	dir  string
	opts LogOptions

	// mu guards the write side below. A commit releases it around its
	// fsync, so appends keep writing while one is in flight; cond is
	// broadcast whenever a commit settles and when Close ends.
	mu      sync.Mutex
	cond    *sync.Cond
	f       File
	size    int64
	nextSeq uint64 // sequence of the next record written
	open    *group // records written since the last fsync began (nil: none)
	syncing bool   // a commit's fsync is in flight
	werr    error  // sticky write or fsync failure; fails all later appends
	closed  bool

	// segMu guards segs: each segment's acknowledged records, which
	// Replay, TruncateBefore and LastSeq read without the write lock.
	segMu sync.Mutex
	segs  []segment
}

// group is one commit group: the records written between two fsync
// starts, made durable and acknowledged together by one fsync.
type group struct {
	first   uint64 // sequence of the group's first record
	n       int
	settled bool // the commit ended, acknowledged or failed with err
	err     error
}

// AppendResult reports one durable append: the record's sequence and
// the size of the commit group whose single fsync covered it — the
// cost-attribution number that says how well group commit amortized
// this record's durability wait.
type AppendResult struct {
	Seq   uint64
	Group int
}

// OpenLog opens (or creates) the log in dir, validating existing
// segments per the package recovery rules: the scan truncates a torn or
// corrupt tail and drops any segments past a corruption or a gap in the
// segment chain. It never fails on damaged content — only on I/O errors.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create log dir: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// segPath renders the segment file name of a first sequence.
func (l *Log) segPath(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%020d%s", first, segSuffix))
}

// recover scans the directory, validates segments, truncates damage,
// and opens the active (last) segment for appending.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("durable: read log dir: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil || n == 0 {
			return fmt.Errorf("durable: alien segment file %s", name)
		}
		firsts = append(firsts, n)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })

	var expect uint64    // required first of the next segment; 0 = any
	var activeSize int64 // valid byte size of the last kept segment
	for i, first := range firsts {
		if expect != 0 && first != expect {
			// A gap (missing segment) or overlap: sequences past it are
			// untrustworthy, so the log ends here.
			l.dropFiles(firsts[i:])
			break
		}
		path := l.segPath(first)
		count, validSize, damaged, err := scanSegment(path, -1, nil)
		if err != nil {
			return err
		}
		if damaged {
			if err := os.Truncate(path, validSize); err != nil {
				return fmt.Errorf("durable: truncate torn tail of %s: %w", path, err)
			}
		}
		l.segs = append(l.segs, segment{first: first, count: count, path: path})
		activeSize = validSize
		expect = first + uint64(count)
		if damaged {
			l.dropFiles(firsts[i+1:])
			break
		}
	}
	if len(l.segs) == 0 {
		l.segs = []segment{{first: 1, path: l.segPath(1)}}
		expect = 1
		activeSize = 0
	}
	l.nextSeq = expect

	// The scan already established the active segment's valid size (the
	// torn tail, if any, was truncated above), so the append handle needs
	// no Stat — which keeps the File seam down to write/sync/close.
	active := l.segs[len(l.segs)-1]
	f, err := l.opts.FS.OpenAppend(active.path)
	if err != nil {
		return fmt.Errorf("durable: open active segment: %w", err)
	}
	l.f, l.size = f, activeSize
	return syncDir(l.dir)
}

// dropFiles removes the segment files of the given first sequences.
func (l *Log) dropFiles(firsts []uint64) {
	for _, first := range firsts {
		os.Remove(l.segPath(first))
	}
}

// scanChunkBytes is the read size of a scan without a callback: such a
// scan only checks each record's CRC, so it streams the payload through
// one buffer of this size and never holds a record whole.
const scanChunkBytes = 64 << 10

// scanSegment walks a segment's records. maxCount caps how many records
// are visited (-1 for all); fn, when non-nil, receives each record's
// index and payload (the payload slice is reused between calls). It
// returns the number of valid records, the byte offset just past the
// last valid record, and whether trailing damage (torn or corrupt data)
// was found after it.
func scanSegment(path string, maxCount int, fn func(idx int, payload []byte) error) (count int, validSize int64, damaged bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, false, nil
		}
		return 0, 0, false, fmt.Errorf("durable: open segment %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, false, fmt.Errorf("durable: stat segment %s: %w", path, err)
	}
	fileSize := info.Size()

	var header [recordHeaderSize]byte
	// buf receives the payloads. With a callback it grows to hold each
	// record whole; without one it stays a single chunk.
	var buf []byte
	if fn == nil {
		buf = make([]byte, min(scanChunkBytes, fileSize))
	}
	for maxCount < 0 || count < maxCount {
		if validSize+recordHeaderSize > fileSize {
			return count, validSize, validSize < fileSize, nil
		}
		if _, err := f.ReadAt(header[:], validSize); err != nil {
			return count, validSize, true, nil
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > MaxRecordBytes ||
			validSize+recordHeaderSize+int64(length) > fileSize {
			return count, validSize, true, nil
		}
		if fn != nil && int(length) > len(buf) {
			buf = make([]byte, length)
		}
		sum, err := checksumAt(f, buf, validSize+recordHeaderSize, int64(length))
		if err != nil || sum != crc {
			return count, validSize, true, nil
		}
		if fn != nil {
			if err := fn(count, buf[:length]); err != nil {
				return count, validSize, false, err
			}
		}
		count++
		validSize += recordHeaderSize + int64(length)
	}
	return count, validSize, false, nil
}

// checksumAt returns the CRC of the n bytes of f at off, reading them
// through buf one len(buf) chunk at a time. When n ≤ len(buf), buf[:n]
// holds the bytes afterwards.
func checksumAt(f *os.File, buf []byte, off, n int64) (uint32, error) {
	var sum uint32
	for n > 0 {
		chunk := buf[:min(int64(len(buf)), n)]
		if _, err := f.ReadAt(chunk, off); err != nil {
			return 0, err
		}
		sum = crc32.Update(sum, crcTable, chunk)
		off += int64(len(chunk))
		n -= int64(len(chunk))
	}
	return sum, nil
}

// Append writes one payload and blocks until it is durable, returning
// the record's sequence and the size of the commit group whose fsync
// covered it (see AppendResult). The record is framed and written under
// the log's write lock; the appender then waits for a commit that began
// after its write, leading that commit itself when no fsync is in
// flight. Records written during an fsync join the next one, so
// concurrent appenders share fsyncs. The caller may reuse the payload
// once Append returns.
func (l *Log) Append(payload []byte) (AppendResult, error) {
	if len(payload) == 0 {
		return AppendResult{}, fmt.Errorf("durable: empty payload")
	}
	if len(payload) > MaxRecordBytes {
		return AppendResult{}, fmt.Errorf("durable: payload of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	var t0 time.Time
	if l.opts.Metrics != nil {
		t0 = time.Now()
	}
	res, err := l.append(payload)
	if m := l.opts.Metrics; m != nil {
		if err != nil {
			m.AppendErrors.Inc()
		} else {
			m.Appends.Inc()
		}
		m.AppendLatency.ObserveSince(t0)
	}
	return res, err
}

func (l *Log) append(payload []byte) (AppendResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A roll first commits what the active segment holds, then swaps
	// it; it never closes a segment under an in-flight fsync.
	for l.werr == nil && !l.closed && l.size >= l.opts.SegmentBytes {
		switch {
		case l.syncing:
			l.cond.Wait()
		case l.open != nil:
			l.commit()
		default:
			if err := l.roll(); err != nil {
				l.werr = err
			}
		}
	}
	if l.closed {
		return AppendResult{}, ErrClosed
	}
	if l.werr != nil {
		return AppendResult{}, l.werr
	}
	buf := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[recordHeaderSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		// The record may be partly on disk: a torn tail the next open
		// truncates. It takes no sequence.
		l.werr = fmt.Errorf("durable: write: %w", err)
		return AppendResult{}, l.werr
	}
	l.size += int64(len(buf))
	if l.open == nil {
		l.open = &group{first: l.nextSeq}
	}
	g, seq := l.open, l.nextSeq
	g.n++
	l.nextSeq++
	// An unsettled group is the open one unless an fsync is covering it.
	for !g.settled {
		if l.syncing {
			l.cond.Wait()
		} else {
			l.commit()
		}
	}
	if g.err != nil {
		return AppendResult{}, g.err
	}
	return AppendResult{Seq: seq, Group: g.n}, nil
}

// commit makes the open group durable with one fsync and settles it,
// acknowledging its appenders or failing them. It runs with l.mu held
// and no fsync in flight; after a sticky failure it fails the group
// unsynced.
func (l *Log) commit() {
	g := l.open
	l.open = nil
	err := l.werr
	if err == nil {
		f := l.f
		l.syncing = true
		l.mu.Unlock()
		err = l.syncGroup(f, g)
		l.mu.Lock()
		l.syncing = false
		if err != nil && l.werr == nil {
			l.werr = err
		}
	}
	g.settled, g.err = true, err
	l.cond.Broadcast()
}

// syncGroup fsyncs f and, on success, makes g's records visible to
// Replay and LastSeq and runs OnDurable for each in sequence order. It
// runs without l.mu, so appends keep writing meanwhile: syncing keeps
// every other commit and every roll out until it returns, which keeps
// the groups, and so the OnDurable calls, in sequence order.
func (l *Log) syncGroup(f File, g *group) error {
	var t0 time.Time
	if l.opts.Metrics != nil {
		t0 = time.Now()
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	if m := l.opts.Metrics; m != nil {
		m.Fsyncs.Inc()
		m.FsyncLatency.ObserveSince(t0)
		m.GroupRecords.Observe(int64(g.n))
	}
	l.segMu.Lock()
	l.segs[len(l.segs)-1].count += g.n
	l.segMu.Unlock()
	if l.opts.OnDurable != nil {
		for i := 0; i < g.n; i++ {
			l.opts.OnDurable(g.first + uint64(i))
		}
	}
	return nil
}

// roll closes the active segment, whose records are all committed, and
// starts the next, named after the next unassigned sequence. It runs
// with l.mu held.
func (l *Log) roll() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("durable: close before roll: %w", err)
	}
	path := l.segPath(l.nextSeq)
	f, err := l.opts.FS.Create(path)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, 0
	l.segMu.Lock()
	l.segs = append(l.segs, segment{first: l.nextSeq, path: path})
	l.segMu.Unlock()
	if m := l.opts.Metrics; m != nil {
		m.SegmentRolls.Inc()
	}
	return nil
}

// LastSeq returns the sequence of the last durable record (0 when the
// log has none).
func (l *Log) LastSeq() uint64 {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	last := l.segs[len(l.segs)-1]
	return last.first + uint64(last.count) - 1
}

// FirstSeq returns the lowest sequence still present on disk — the
// oldest record Replay can reach. When the log holds no records it
// returns the next sequence to be assigned.
func (l *Log) FirstSeq() uint64 {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	return l.segs[0].first
}

// Replay streams every durable record with sequence > after, in
// sequence order, to fn. It may run concurrently with appends: the
// record set visited is (at least) everything durable at call time.
// fn's payload slice is reused between calls. A segment that yields
// fewer records than it acknowledged — damaged on disk since the open,
// or deleted by a concurrent TruncateBefore — fails the replay, so a
// caller never mistakes a short replay for a complete one.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.segMu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.segMu.Unlock()
	for _, seg := range segs {
		if seg.first+uint64(seg.count) <= after+1 {
			continue // entire segment at or below the floor
		}
		n, _, _, err := scanSegment(seg.path, seg.count, func(idx int, payload []byte) error {
			seq := seg.first + uint64(idx)
			if seq <= after {
				return nil
			}
			return fn(seq, payload)
		})
		if err != nil {
			return err
		}
		if n < seg.count {
			return fmt.Errorf("durable: segment %s: only %d of its %d records readable", seg.path, n, seg.count)
		}
	}
	return nil
}

// TruncateBefore deletes every segment whose records all have
// sequence ≤ seq. Truncation is whole-segment (the active segment is
// never deleted), so some records at or below seq may survive — replay
// floors make that harmless.
func (l *Log) TruncateBefore(seq uint64) error {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	keep := 0
	for keep+1 < len(l.segs) && l.segs[keep+1].first <= seq+1 {
		keep++
	}
	if keep == 0 {
		return nil
	}
	for _, seg := range l.segs[:keep] {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("durable: remove segment: %w", err)
		}
	}
	l.segs = append([]segment(nil), l.segs[keep:]...)
	if m := l.opts.Metrics; m != nil {
		m.TruncatedSegments.Add(uint64(keep))
	}
	return nil
}

// Close finishes the appends already written, committing them when no
// fsync is in flight, then closes the active segment. Appends after
// Close fail with ErrClosed. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		for l.f != nil {
			l.cond.Wait()
		}
		return nil
	}
	l.closed = true
	for l.syncing || l.open != nil {
		if l.syncing {
			l.cond.Wait()
		} else {
			l.commit()
		}
	}
	l.f.Close()
	l.f = nil
	l.cond.Broadcast()
	return l.werr
}
