package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// replayAll collects every record after the given floor.
func replayAll(t *testing.T, l *Log, after uint64) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	err := l.Replay(after, func(seq uint64, payload []byte) error {
		out[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestLogAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]string)
	for i := 0; i < 100; i++ {
		payload := fmt.Sprintf("record-%03d", i)
		res, err := l.Append([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if wantSeq := uint64(i + 1); res.Seq != wantSeq {
			t.Fatalf("append %d: seq %d, want %d", i, res.Seq, wantSeq)
		}
		want[res.Seq] = payload
	}
	got := replayAll(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for seq, payload := range want {
		if got[seq] != payload {
			t.Fatalf("seq %d: %q, want %q", seq, got[seq], payload)
		}
	}
	if after := replayAll(t, l, 60); len(after) != 40 {
		t.Fatalf("replay after 60: %d records, want 40", len(after))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything acknowledged must still be there.
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 0); len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
	if l2.LastSeq() != 100 {
		t.Fatalf("LastSeq = %d, want 100", l2.LastSeq())
	}
	if res, err := l2.Append([]byte("post-reopen")); err != nil || res.Seq != 101 {
		t.Fatalf("append after reopen: seq %d err %v, want 101", res.Seq, err)
	}
}

// TestLogGroupCommitConcurrent drives many concurrent appenders and
// checks that sequences come out dense and every record replays — the
// group-commit path must never drop, duplicate, or reorder an
// acknowledged record. OnDurable must observe sequences in order.
func TestLogGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	var hookMu sync.Mutex
	var hookSeqs []uint64
	l, err := OpenLog(dir, LogOptions{
		SegmentBytes: 1 << 12, // force rolls mid-flood
		OnDurable: func(seq uint64) {
			hookMu.Lock()
			hookSeqs = append(hookSeqs, seq)
			hookMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	seqs := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				res, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				seqs[w] = append(seqs[w], res.Seq)
			}
		}(w)
	}
	wg.Wait()
	var all []uint64
	for _, s := range seqs {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, seq := range all {
		if seq != uint64(i+1) {
			t.Fatalf("sequence hole: position %d holds %d", i, seq)
		}
	}
	for i := 1; i < len(hookSeqs); i++ {
		if hookSeqs[i] != hookSeqs[i-1]+1 {
			t.Fatalf("OnDurable out of order: %d after %d", hookSeqs[i], hookSeqs[i-1])
		}
	}
	if got := replayAll(t, l, 0); len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("late")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestLogSegmentRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 40) // ~2 records per segment
	for i := 0; i < 20; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if files := segFiles(t, dir); len(files) < 5 {
		t.Fatalf("expected several segments, got %v", files)
	}
	// Truncation keeps every record above the floor and only removes
	// whole segments.
	if err := l.TruncateBefore(10); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l, 10)
	for seq := uint64(11); seq <= 20; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("record %d lost by truncation", seq)
		}
	}
	if first := l.FirstSeq(); first > 11 {
		t.Fatalf("FirstSeq %d after TruncateBefore(10): truncated too much", first)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after truncation: the chain must still be valid.
	l2, err := OpenLog(dir, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 20 {
		t.Fatalf("LastSeq after reopen = %d, want 20", l2.LastSeq())
	}
}

// appendRaw writes raw bytes to the log's newest segment file.
func appendRaw(t *testing.T, dir string, raw []byte) string {
	t.Helper()
	files := segFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(files)
	path := filepath.Join(dir, files[len(files)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// frame builds one valid record frame.
func frame(payload []byte) []byte {
	var header [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	return append(header[:], payload...)
}

// TestLogRecoveryTornTail appends a partial record frame at every
// possible cut offset and checks recovery truncates exactly the torn
// bytes — acknowledged records always survive, the torn write never
// does, and the log stays appendable.
func TestLogRecoveryTornTail(t *testing.T) {
	full := frame([]byte("in-flight-batch-payload"))
	for cut := 0; cut < len(full); cut++ {
		dir := t.TempDir()
		l, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("acked-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		appendRaw(t, dir, full[:cut])

		l2, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := replayAll(t, l2, 0); len(got) != 5 {
			t.Fatalf("cut %d: %d records, want 5", cut, len(got))
		}
		if res, err := l2.Append([]byte("next")); err != nil || res.Seq != 6 {
			t.Fatalf("cut %d: append after recovery: seq %d err %v", cut, res.Seq, err)
		}
		l2.Close()
	}
}

func TestLogRecoveryCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bad := frame([]byte("flipped"))
	bad[len(bad)-1] ^= 0xFF // payload no longer matches its CRC
	appendRaw(t, dir, bad)

	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 0); len(got) != 5 {
		t.Fatalf("%d records after corrupt-CRC recovery, want 5", len(got))
	}
}

// TestLogRecoveryMissingSegment: an empty just-rolled segment is valid;
// a gap in the chain ends the log at the gap.
func TestLogRecoveryMissingSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 40)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// An empty tail segment, as left by a roll that crashed before its
	// first record.
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 11, segSuffix)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2, 0); len(got) != 10 {
		t.Fatalf("%d records with empty tail segment, want 10", len(got))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Delete a middle segment: recovery must end the log at the gap
	// rather than replay sequences it cannot trust.
	files := segFiles(t, dir)
	sort.Strings(files)
	if len(files) < 3 {
		t.Fatalf("need ≥3 segments, got %v", files)
	}
	if err := os.Remove(filepath.Join(dir, files[1])); err != nil {
		t.Fatal(err)
	}
	l3, err := OpenLog(dir, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	got := replayAll(t, l3, 0)
	if len(got) == 0 || len(got) >= 10 {
		t.Fatalf("%d records after gap, want a proper prefix", len(got))
	}
	for seq := uint64(1); seq <= uint64(len(got)); seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("surviving records are not a dense prefix: missing %d", seq)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second" {
		t.Fatalf("content %q, want %q", data, "second")
	}
	// A failing writer must leave the old content and no temp litter.
	if err := WriteFileAtomic(path, func(io.Writer) error {
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("expected write error")
	}
	if data, _ := os.ReadFile(path); string(data) != "second" {
		t.Fatalf("failed write clobbered content: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if m, err := LoadManifest(dir); err != nil || m != nil {
		t.Fatalf("empty dir: manifest %v err %v, want nil, nil", m, err)
	}
	in := &Manifest{
		Version:   ManifestVersion,
		Shards:    4,
		Gen:       7,
		Floors:    []uint64{3, 0, 12, 5},
		Snapshots: []string{"stripe-0000-00000007.snap", "", "stripe-0002-00000006.snap", ""},
	}
	if err := in.Write(dir); err != nil {
		t.Fatal(err)
	}
	out, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("roundtrip mismatch: %+v, want %+v", out, in)
	}

	// Other versions are refused with the version named; older ones
	// also name the migration route.
	for _, v := range []int{0, 2, ManifestVersion + 1} {
		old := *in
		old.Version = v
		if err := old.Write(dir); err != nil {
			t.Fatal(err)
		}
		_, err := LoadManifest(dir)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("version %d manifest: err = %v, want a refusal naming the version", v, err)
		}
		if v < ManifestVersion && !strings.Contains(err.Error(), "-dump") {
			t.Fatalf("version %d refusal does not name the migration route: %v", v, err)
		}
	}
}
