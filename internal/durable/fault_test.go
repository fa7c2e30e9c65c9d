// Chaos tests driving disk faults through the WAL's real commit path
// via the durable.FS seam. They live in package durable_test because
// internal/fault imports durable.
package durable_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/fault"
)

// appendN appends n sequential records, returning the payloads whose
// Append was acknowledged (returned nil).
func appendN(t *testing.T, l *durable.Log, start, n int) map[uint64]string {
	t.Helper()
	acked := make(map[uint64]string)
	for i := start; i < start+n; i++ {
		payload := fmt.Sprintf("record-%04d", i)
		if res, err := l.Append([]byte(payload)); err == nil {
			acked[res.Seq] = payload
		}
	}
	return acked
}

func replayAllExt(t *testing.T, l *durable.Log) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	err := l.Replay(0, func(seq uint64, payload []byte) error {
		out[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// TestWALSyncFaultSticky: a persistent fsync failure must fail the
// in-flight append AND every later one — the log never acknowledges a
// record it could not make durable, and never "recovers" silently.
func TestWALSyncFaultSticky(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("simulated fsync failure")
	fs := &fault.FS{Sync: fault.New(fault.Config{FailFrom: 3, Err: boom})}
	l, err := durable.OpenLog(dir, durable.LogOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	acked := appendN(t, l, 0, 10)
	if len(acked) == 0 || len(acked) == 10 {
		t.Fatalf("acknowledged %d/10 appends; want a failure partway", len(acked))
	}
	// Sticky: the fault has fired, so even with the injector healed the
	// log must keep refusing appends (restart is the only recovery).
	fs.Sync.Disable()
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("append after sync failure succeeded; WAL failure must be sticky")
	} else if !errors.Is(err, boom) {
		t.Fatalf("sticky error = %v, want the original %v", err, boom)
	}
}

// TestWALAcknowledgedSurviveDiskFault: after a write fault kills the
// log mid-stream, reopening the directory must replay every
// acknowledged record — acknowledged-means-durable even on a dying
// disk.
func TestWALAcknowledgedSurviveDiskFault(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			fs := &fault.FS{
				Write: fault.New(fault.Config{FailFrom: 6}),
				Torn:  torn,
			}
			l, err := durable.OpenLog(dir, durable.LogOptions{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			acked := appendN(t, l, 0, 12)
			if len(acked) == 0 || len(acked) == 12 {
				t.Fatalf("acknowledged %d/12 appends; want a failure partway", len(acked))
			}
			l.Close()

			// Reopen on the healthy filesystem, as a restart would.
			l2, err := durable.OpenLog(dir, durable.LogOptions{})
			if err != nil {
				t.Fatalf("reopen after disk fault: %v", err)
			}
			defer l2.Close()
			got := replayAllExt(t, l2)
			for seq, payload := range acked {
				if got[seq] != payload {
					t.Fatalf("acknowledged seq %d lost after recovery: got %q, want %q", seq, got[seq], payload)
				}
			}
			// Recovery must also restore append service: the torn tail is
			// truncated and new records land after the last durable one.
			res, err := l2.Append([]byte("post-recovery"))
			if err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if res.Seq <= l2.FirstSeq() {
				t.Fatalf("post-recovery seq %d not past the recovered tail", res.Seq)
			}
		})
	}
}

// TestWALTornTailTruncated: a torn half-record at the tail (the fault
// FS writes the front half of the failing buffer) must be dropped by
// recovery, not surfaced as a corrupt log.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	fs := &fault.FS{Write: fault.New(fault.Config{FailFrom: 4}), Torn: true}
	l, err := durable.OpenLog(dir, durable.LogOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	acked := appendN(t, l, 0, 6)
	l.Close()

	l2, err := durable.OpenLog(dir, durable.LogOptions{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	got := replayAllExt(t, l2)
	if len(got) != len(acked) {
		t.Fatalf("recovered %d records, want exactly the %d acknowledged (torn tail truncated)", len(got), len(acked))
	}
	for seq, payload := range acked {
		if got[seq] != payload {
			t.Fatalf("seq %d: %q, want %q", seq, got[seq], payload)
		}
	}
}

// TestWALOpenFaultSurfaces: a filesystem that cannot open segments must
// fail OpenLog cleanly (no panic, no half-initialized log).
func TestWALOpenFaultSurfaces(t *testing.T) {
	fs := &fault.FS{Open: fault.New(fault.Config{FailFrom: 1})}
	if _, err := durable.OpenLog(t.TempDir(), durable.LogOptions{FS: fs}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("OpenLog = %v, want ErrInjected", err)
	}
}

// TestWALGroupCommitAmortizes: with every fsync slowed to 5 ms, eight
// concurrent writers must share fsyncs — records written while one is
// in flight join the next — with sequences dense and OnDurable in
// order. A log that fsyncs each record on its own pays 80.
func TestWALGroupCommitAmortizes(t *testing.T) {
	fs := &fault.FS{Sync: fault.New(fault.Config{Latency: 5 * time.Millisecond})}
	var (
		hookMu   sync.Mutex
		hookSeqs []uint64
	)
	l, err := durable.OpenLog(t.TempDir(), durable.LogOptions{
		FS: fs,
		OnDurable: func(seq uint64) {
			hookMu.Lock()
			hookSeqs = append(hookSeqs, seq)
			hookMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 10
	var (
		mu   sync.Mutex
		seqs []uint64
		wg   sync.WaitGroup
	)
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
				mu.Lock()
				seqs = append(seqs, res.Seq)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	const appends = writers * perWriter
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("sequences not dense: position %d holds %d", i, seq)
		}
	}
	if len(hookSeqs) != appends {
		t.Fatalf("OnDurable ran %d times, want %d", len(hookSeqs), appends)
	}
	for i, seq := range hookSeqs {
		if seq != uint64(i+1) {
			t.Fatalf("OnDurable out of order: position %d saw %d", i, seq)
		}
	}
	fsyncs := fs.Sync.Ops()
	t.Logf("%d fsyncs for %d appends", fsyncs, appends)
	if fsyncs > appends/2 {
		t.Fatalf("%d fsyncs for %d appends: concurrent appends must share fsyncs", fsyncs, appends)
	}
}

// TestWALUnsyncedRecordInvisible: a record that is written but whose
// fsync is still in flight, or failed, is never returned by Replay nor
// counted by LastSeq.
func TestWALUnsyncedRecordInvisible(t *testing.T) {
	t.Run("delayed", func(t *testing.T) {
		fs := &fault.FS{Sync: fault.New(fault.Config{Latency: 200 * time.Millisecond})}
		l, err := durable.OpenLog(t.TempDir(), durable.LogOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		done := make(chan error, 1)
		go func() {
			_, err := l.Append([]byte("slow"))
			done <- err
		}()
		// The fsync starts only after the record is written.
		for deadline := time.Now().Add(5 * time.Second); fs.Sync.Ops() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the append never reached its fsync")
			}
		}
		if got := replayAllExt(t, l); len(got) != 0 || l.LastSeq() != 0 {
			t.Fatalf("record visible during its fsync: replay %v, LastSeq %d", got, l.LastSeq())
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := replayAllExt(t, l); got[1] != "slow" || l.LastSeq() != 1 {
			t.Fatalf("acknowledged record not visible: replay %v, LastSeq %d", got, l.LastSeq())
		}
	})
	t.Run("failed", func(t *testing.T) {
		fs := &fault.FS{Sync: fault.New(fault.Config{FailOps: []int{2}})}
		l, err := durable.OpenLog(t.TempDir(), durable.LogOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append([]byte("kept")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("lost")); err == nil {
			t.Fatal("append acknowledged although its fsync failed")
		}
		if got := replayAllExt(t, l); len(got) != 1 || got[1] != "kept" || l.LastSeq() != 1 {
			t.Fatalf("after a failed fsync: replay %v, LastSeq %d, want only record 1", got, l.LastSeq())
		}
	})
}
