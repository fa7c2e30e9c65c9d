package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
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
	// DefaultMaxGroup is the group-commit batch cap when
	// LogOptions.MaxGroup is zero.
	DefaultMaxGroup = 256

	segSuffix = ".seg"
)

// groupCollectYields bounds the scheduler-yield run collectGroup waits
// for more appends before fsyncing: enough round trips for every
// concurrently acknowledged appender to resubmit, a few microseconds
// when nobody does.
const groupCollectYields = 16

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
	// MaxGroup caps how many waiting appends one group commit absorbs
	// (default DefaultMaxGroup).
	MaxGroup int
	// groupYields is collectGroup's patience in scheduler yields
	// (internal; groupCollectYields unless a test overrides it).
	groupYields int
	// OnDurable, when set, runs on the writer goroutine for every
	// appended record — in sequence order, after the group's fsync,
	// before the append is acknowledged. It must not call back into the
	// log.
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

	// mu guards segs — shared between the writer goroutine (rolling,
	// count updates) and Replay/TruncateBefore/LastSeq.
	mu   sync.Mutex
	segs []segment

	// sendMu serializes Append submission against Close: once closed is
	// set under the write lock, no sender is mid-submission, so the
	// writer can drain the channel and exit without stranding a caller.
	sendMu sync.RWMutex
	closed bool

	reqs chan *appendReq
	stop chan struct{}
	done chan struct{}

	// Writer-goroutine-owned state (initialized before the goroutine
	// starts, touched only by it afterwards).
	f       File
	size    int64
	nextSeq uint64
	werr    error // sticky write failure; fails all later appends
}

type appendReq struct {
	payload []byte
	done    chan appendRes
}

type appendRes struct {
	seq   uint64
	group int // records in the commit group whose fsync covered this one
	err   error
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
	if opts.MaxGroup <= 0 {
		opts.MaxGroup = DefaultMaxGroup
	}
	if opts.groupYields == 0 {
		opts.groupYields = groupCollectYields
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create log dir: %w", err)
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		reqs: make(chan *appendReq, opts.MaxGroup),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	go l.run()
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
	var payload []byte
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
		if int(length) > cap(payload) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := f.ReadAt(payload, validSize+recordHeaderSize); err != nil {
			return count, validSize, true, nil
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return count, validSize, true, nil
		}
		if fn != nil {
			if err := fn(count, payload); err != nil {
				return count, validSize, false, err
			}
		}
		count++
		validSize += recordHeaderSize + int64(length)
	}
	return count, validSize, false, nil
}

// Append submits one payload and blocks until it is durable (written
// and fsync'd, possibly as part of a larger group commit), returning
// the record's sequence and the commit-group size it was fsync'd with
// (see AppendResult). The payload is copied into the log's write
// buffer synchronously, so the caller may reuse it afterwards.
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
	req := &appendReq{payload: payload, done: make(chan appendRes, 1)}
	l.sendMu.RLock()
	if l.closed {
		l.sendMu.RUnlock()
		return AppendResult{}, ErrClosed
	}
	l.reqs <- req
	l.sendMu.RUnlock()
	// Every submitted request is answered: the writer drains the
	// channel before exiting, and Close flips closed before stopping it.
	res := <-req.done
	if m := l.opts.Metrics; m != nil {
		if res.err != nil {
			m.AppendErrors.Inc()
		} else {
			m.Appends.Inc()
		}
		m.AppendLatency.ObserveSince(t0)
	}
	return AppendResult{Seq: res.seq, Group: res.group}, res.err
}

// run is the writer goroutine: it groups waiting appends, commits each
// group with one write+fsync, and acknowledges in sequence order.
func (l *Log) run() {
	defer close(l.done)
	for {
		var req *appendReq
		select {
		case req = <-l.reqs:
		case <-l.stop:
			// No sender can submit anymore; drain what already queued.
			for {
				select {
				case req := <-l.reqs:
					l.commitGroup(l.collectGroup(req))
				default:
					if l.f != nil {
						l.f.Sync()
						l.f.Close()
					}
					return
				}
			}
		}
		l.commitGroup(l.collectGroup(req))
	}
}

// collectGroup gathers the commit group for one fsync: everything
// already waiting, plus whatever arrives during a brief collection
// pause. The pause is what makes group commit actually amortize —
// appenders acknowledged by the previous fsync need a scheduler round
// trip to resubmit, so an impatient writer would commit groups of one
// to two forever, paying a full fsync each. The pause is a bounded run
// of scheduler yields rather than a timer: yields cost microseconds
// (timers on this path fire a millisecond late), stop as soon as the
// queue goes quiet, and let the resubmitting goroutines run — exactly
// the ones being waited for.
func (l *Log) collectGroup(first *appendReq) []*appendReq {
	group := []*appendReq{first}
	quiet := 0
	for len(group) < l.opts.MaxGroup && quiet < l.opts.groupYields {
		select {
		case r := <-l.reqs:
			group = append(group, r)
			quiet = 0
			continue
		default:
		}
		runtime.Gosched()
		quiet++
	}
	return group
}

// commitGroup writes one group: a single buffer build, one write, one
// fsync, then per-record OnDurable hooks and acknowledgements in
// sequence order.
func (l *Log) commitGroup(group []*appendReq) {
	if l.werr != nil {
		for _, r := range group {
			r.done <- appendRes{err: l.werr}
		}
		return
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.roll(); err != nil {
			l.werr = err
			for _, r := range group {
				r.done <- appendRes{err: err}
			}
			return
		}
	}
	var buf []byte
	for _, r := range group {
		var header [recordHeaderSize]byte
		binary.LittleEndian.PutUint32(header[0:4], uint32(len(r.payload)))
		binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(r.payload, crcTable))
		buf = append(buf, header[:]...)
		buf = append(buf, r.payload...)
	}
	if _, err := l.f.Write(buf); err == nil {
		var t0 time.Time
		if l.opts.Metrics != nil {
			t0 = time.Now()
		}
		err = l.f.Sync()
		if err != nil {
			l.werr = fmt.Errorf("durable: fsync: %w", err)
		} else if m := l.opts.Metrics; m != nil {
			m.Fsyncs.Inc()
			m.FsyncLatency.ObserveSince(t0)
			m.GroupRecords.Observe(int64(len(group)))
		}
	} else {
		l.werr = fmt.Errorf("durable: write: %w", err)
	}
	if l.werr != nil {
		// The group's bytes may be partially on disk — a torn tail the
		// next open will truncate. Nothing was acknowledged.
		for _, r := range group {
			r.done <- appendRes{err: l.werr}
		}
		return
	}
	l.size += int64(len(buf))
	firstSeq := l.nextSeq
	l.nextSeq += uint64(len(group))
	l.mu.Lock()
	l.segs[len(l.segs)-1].count += len(group)
	l.mu.Unlock()
	for i, r := range group {
		seq := firstSeq + uint64(i)
		if l.opts.OnDurable != nil {
			l.opts.OnDurable(seq)
		}
		r.done <- appendRes{seq: seq, group: len(group)}
	}
}

// roll closes the active segment and starts the next, named after the
// next unassigned sequence.
func (l *Log) roll() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync before roll: %w", err)
	}
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
	l.mu.Lock()
	l.segs = append(l.segs, segment{first: l.nextSeq, path: path})
	l.mu.Unlock()
	if m := l.opts.Metrics; m != nil {
		m.SegmentRolls.Inc()
	}
	return nil
}

// LastSeq returns the sequence of the last durable record (0 when the
// log has none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := l.segs[len(l.segs)-1]
	return last.first + uint64(last.count) - 1
}

// FirstSeq returns the lowest sequence still present on disk — the
// oldest record Replay can reach. When the log holds no records it
// returns the next sequence to be assigned.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].first
}

// Replay streams every durable record with sequence > after, in
// sequence order, to fn. It may run concurrently with appends: the
// record set visited is (at least) everything durable at call time.
// fn's payload slice is reused between calls.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	for _, seg := range segs {
		if seg.first+uint64(seg.count) <= after+1 {
			continue // entire segment at or below the floor
		}
		_, _, _, err := scanSegment(seg.path, seg.count, func(idx int, payload []byte) error {
			seq := seg.first + uint64(idx)
			if seq <= after {
				return nil
			}
			return fn(seq, payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TruncateBefore deletes every segment whose records all have
// sequence ≤ seq. Truncation is whole-segment (the active segment is
// never deleted), so some records at or below seq may survive — replay
// floors make that harmless.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
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

// Close stops the writer after finishing every already-submitted
// append, syncs, and closes the active segment. Appends submitted after
// Close fail with ErrClosed. Close is idempotent.
func (l *Log) Close() error {
	l.sendMu.Lock()
	if l.closed {
		l.sendMu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.sendMu.Unlock()
	close(l.stop)
	<-l.done
	return l.werr
}
