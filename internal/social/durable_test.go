package social

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// durPost builds a deterministic test post; day spreads posts across
// time buckets (and so stripes).
func durPost(n, day int) *Post {
	return &Post{
		ID:        fmt.Sprintf("dur-%05d", n),
		Author:    fmt.Sprintf("author-%d", n%7),
		Text:      fmt.Sprintf("durable #walwrite chatter %d about the excavator fleet", n),
		CreatedAt: time.Date(2024, 3, 1, 8, 0, 0, 0, time.UTC).AddDate(0, 0, day),
		Region:    RegionEurope,
		Metrics:   Metrics{Views: n, Likes: n % 13},
	}
}

// listAll drains the full listing — the byte-identity oracle of the
// recovery tests.
func listAll(t *testing.T, s *Store) []byte {
	t.Helper()
	posts, err := SearchAll(context.Background(), s, Query{MaxResults: MaxPageSize})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(posts)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// noCompact disables background compaction so tests control snapshots.
func noCompact(shards int) DurableOptions {
	return DurableOptions{Shards: shards, CompactEvery: -1}
}

// TestDurableReopenEquivalence: acknowledged posts must survive a clean
// close + reopen, with SearchAll byte-identical to an in-memory store
// holding the same posts, at several stripe counts — both from the
// pure-WAL state and after a snapshot compaction.
func TestDurableReopenEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, flush := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/flush=%v", shards, flush), func(t *testing.T) {
				dir := t.TempDir()
				s, err := OpenStoreDir(dir, noCompact(shards))
				if err != nil {
					t.Fatal(err)
				}
				mem := NewStoreShards(shards)
				for b := 0; b < 12; b++ {
					var batch []*Post
					for i := 0; i < 10; i++ {
						n := b*10 + i
						batch = append(batch, durPost(n, n%23))
					}
					if err := s.Add(batch...); err != nil {
						t.Fatal(err)
					}
					if err := mem.Add(clonePosts(batch)...); err != nil {
						t.Fatal(err)
					}
					if flush && b == 6 {
						if err := s.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				want := listAll(t, mem)
				if got := listAll(t, s); !reflect.DeepEqual(got, want) {
					t.Fatal("pre-close listing differs from in-memory reference")
				}
				s.closeAbrupt() // no final snapshot: reopen must replay the WAL

				re, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if re.Shards() != shards {
					t.Fatalf("reopened with %d shards, want %d (manifest)", re.Shards(), shards)
				}
				if got := listAll(t, re); !reflect.DeepEqual(got, want) {
					t.Fatal("recovered listing not byte-identical to acknowledged state")
				}
			})
		}
	}
}

// clonePosts deep-copies posts so two stores never share *Post values.
func clonePosts(posts []*Post) []*Post {
	out := make([]*Post, len(posts))
	for i, p := range posts {
		cp := *p
		out[i] = &cp
	}
	return out
}

// walFrame frames one payload the way the WAL does.
func walFrame(payload []byte) []byte {
	var header [8]byte
	table := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, table))
	return append(header[:], payload...)
}

// lastSegment returns the newest WAL segment file of a stripe.
func lastSegment(t *testing.T, dir string, stripe int) string {
	t.Helper()
	sdir := filepath.Join(dir, walDirName, fmt.Sprintf("stripe-%04d", stripe))
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		t.Fatalf("stripe %d has no segments", stripe)
	}
	sort.Strings(names)
	return filepath.Join(sdir, names[len(names)-1])
}

// TestDurableCrashRecovery is the crash property test: ingest
// acknowledged batches, then simulate a crash that kills an in-flight
// unacknowledged write at an arbitrary byte offset — a torn WAL tail, a
// corrupt CRC, or a crashed segment roll (empty new segment) — and
// assert the recovered listing is byte-identical to the acknowledged
// pre-crash state, at stripe counts 1, 4 and 16.
func TestDurableCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(21434))
	inflight, err := json.Marshal([]*Post{durPost(99999, 3)})
	if err != nil {
		t.Fatal(err)
	}
	full := walFrame(inflight)
	for _, shards := range []int{1, 4, 16} {
		// Arbitrary byte offsets into the in-flight record, both header
		// and payload cuts, plus the damage modes that are not plain
		// truncation.
		cuts := []int{0, 1, 7, 8, 9, len(full) / 2, len(full) - 1}
		for i := 0; i < 4; i++ {
			cuts = append(cuts, 1+rng.Intn(len(full)-1))
		}
		for _, cut := range cuts {
			cut := cut
			t.Run(fmt.Sprintf("shards=%d/torn-at-%d", shards, cut), func(t *testing.T) {
				dir, want := ackedStore(t, shards)
				// The crash: an unacknowledged record torn at byte `cut`,
				// landing on an arbitrary stripe's log.
				appendToFile(t, lastSegment(t, dir, rng.Intn(shards)), full[:cut])
				assertRecovered(t, dir, want)
			})
		}
		t.Run(fmt.Sprintf("shards=%d/corrupt-crc", shards), func(t *testing.T) {
			dir, want := ackedStore(t, shards)
			bad := walFrame(inflight)
			bad[len(bad)-1] ^= 0xFF
			appendToFile(t, lastSegment(t, dir, 0), bad)
			assertRecovered(t, dir, want)
		})
		t.Run(fmt.Sprintf("shards=%d/crashed-roll", shards), func(t *testing.T) {
			dir, want := ackedStore(t, shards)
			// A roll that crashed after creating the next segment but
			// before its first record: an empty segment file with a far
			// first-sequence... and a missing-segment gap for stripe 0.
			sdir := filepath.Join(dir, walDirName, "stripe-0000")
			if err := os.WriteFile(filepath.Join(sdir, fmt.Sprintf("%020d.seg", uint64(1_000_000))), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			assertRecovered(t, dir, want)
		})
	}
}

// ackedStore ingests a deterministic corpus (with a mid-way snapshot so
// recovery exercises snapshot + WAL tail), closes abruptly, and returns
// the data dir plus the acknowledged listing.
func ackedStore(t *testing.T, shards int) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(shards))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		var batch []*Post
		for i := 0; i < 5; i++ {
			n := b*5 + i
			batch = append(batch, durPost(n, n%19))
		}
		if err := s.Add(batch...); err != nil {
			t.Fatal(err)
		}
		if b == 3 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := listAll(t, s)
	s.closeAbrupt()
	return dir, want
}

func appendToFile(t *testing.T, path string, raw []byte) {
	t.Helper()
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
}

func assertRecovered(t *testing.T, dir string, want []byte) {
	t.Helper()
	re, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatalf("recovery must never be fatal: %v", err)
	}
	defer re.Close()
	if got := listAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered listing differs from acknowledged state:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestDurableConcurrentIngestRecovery: concurrent writers ingest
// multi-stripe batches (with compaction racing them); every batch whose
// Add returned must survive an abrupt close, byte-identically.
func TestDurableConcurrentIngestRecovery(t *testing.T) {
	for _, shards := range []int{4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStoreDir(dir, DurableOptions{
				Shards:       shards,
				CompactEvery: time.Millisecond, // compaction races ingest
			})
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter = 8, 12
			var wg sync.WaitGroup
			acked := make([][]*Post, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for b := 0; b < perWriter; b++ {
						var batch []*Post
						for i := 0; i < 4; i++ {
							n := (w*perWriter+b)*4 + i
							// Spread one batch across several stripes.
							batch = append(batch, durPost(n, n%29))
						}
						if err := s.Add(batch...); err != nil {
							t.Errorf("add: %v", err)
							return
						}
						acked[w] = append(acked[w], batch...)
					}
				}(w)
			}
			wg.Wait()
			var all []*Post
			for _, posts := range acked {
				all = append(all, posts...)
			}
			sort.Slice(all, func(i, j int) bool { return postLess(all[i], all[j]) })
			want, err := json.Marshal(all)
			if err != nil {
				t.Fatal(err)
			}
			s.closeAbrupt()

			re, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := listAll(t, re); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered %d bytes, acknowledged %d bytes", len(got), len(want))
			}
		})
	}
}

// TestDurableLargeBatchChunksRecords: a sub-batch bigger than the
// per-record chunk splits into several WAL records (no MaxRecordBytes
// cliff on whole-corpus seeds) and recovers whole.
func TestDurableLargeBatchChunksRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(2))
	if err != nil {
		t.Fatal(err)
	}
	n := walChunkPosts + 50 // same day → one stripe → one sub-batch
	batch := make([]*Post, n)
	for i := range batch {
		batch[i] = durPost(i, 0)
	}
	if err := s.Add(batch...); err != nil {
		t.Fatal(err)
	}
	if last := s.dur.logs[s.shardFor(batch[0].CreatedAt)].LastSeq(); last < 2 {
		t.Fatalf("oversized sub-batch produced %d WAL records, want ≥2", last)
	}
	want := listAll(t, s)
	s.closeAbrupt()
	re, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := listAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("chunked batch did not recover byte-identically")
	}
}

// TestDurableCompactionTruncatesWAL: after a flush, segments wholly
// below the floor disappear, and the store still reopens identically.
func TestDurableCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	opts := noCompact(2)
	opts.SegmentBytes = 256 // tiny segments so truncation has targets
	s, err := OpenStoreDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 40; n++ {
		if err := s.Add(durPost(n, n%2)); err != nil {
			t.Fatal(err)
		}
	}
	before := countSegments(t, dir)
	if before < 4 {
		t.Fatalf("want several segments before flush, got %d", before)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := countSegments(t, dir); after >= before {
		t.Fatalf("flush truncated nothing: %d segments before, %d after", before, after)
	}
	want := listAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := listAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("listing changed across flush + reopen")
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(filepath.Join(dir, walDirName), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".seg" {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDurablePostsSince: the cursor delta contains exactly the posts
// ingested after the cursor, even across a compaction.
func TestDurablePostsSince(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for n := 0; n < 10; n++ {
		if err := s.Add(durPost(n, n%11)); err != nil {
			t.Fatal(err)
		}
	}
	cur := s.DurableCursor()
	if cur == nil {
		t.Fatal("durable store must expose a cursor")
	}
	if delta, err := s.PostsSince(cur); err != nil || len(delta) != 0 {
		t.Fatalf("delta at current cursor: %d posts, err %v", len(delta), err)
	}
	var want []string
	for n := 10; n < 25; n++ {
		if err := s.Add(durPost(n, n%11)); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("dur-%05d", n))
	}
	delta, err := s.PostsSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range delta {
		got = append(got, p.ID)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta %v, want %v", got, want)
	}
	// Compaction keeps whole segments, so a cursor this recent is still
	// replayable afterwards.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if delta, err := s.PostsSince(s.DurableCursor()); err != nil || len(delta) != 0 {
		t.Fatalf("delta after flush at fresh cursor: %d posts, err %v", len(delta), err)
	}
	// An in-memory store has no cursor.
	mem := NewStore()
	if mem.DurableCursor() != nil {
		t.Fatal("in-memory store returned a durable cursor")
	}
	if _, err := mem.PostsSince(DurableCursor{}); err == nil {
		t.Fatal("PostsSince on an in-memory store must fail")
	}
}

// TestWatchAfterDurableCursorHandOff pins the hand-off a warm restart
// relies on: take a DurableCursor, then Watch, then PostsSince(cursor).
// With writers running throughout, every post whose Add began after
// the cursor was taken is in the delta or on the live feed — the one
// catch-up mechanism covers everything the live-only feed cannot.
func TestWatchAfterDurableCursorHandOff(t *testing.T) {
	s, err := OpenStoreDir(t.TempDir(), noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		taken atomic.Bool // set once the cursor is taken
		mu    sync.Mutex
		owed  []string // posts whose Add began after the cursor was taken
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := durPost(w*100000+i, (w+i)%11)
				after := taken.Load()
				if err := s.Add(p); err != nil {
					t.Error(err)
					return
				}
				if after {
					mu.Lock()
					owed = append(owed, p.ID)
					mu.Unlock()
				}
			}
		}(w)
	}
	waitLen := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); s.Len() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("store holds %d posts, want %d", s.Len(), n)
			}
		}
	}

	waitLen(50)
	cursor := s.DurableCursor()
	taken.Store(true)
	feed := s.Watch(ctx)
	delta, err := s.PostsSince(cursor)
	if err != nil {
		t.Fatal(err)
	}
	waitLen(s.Len() + 100)
	close(stop)
	wg.Wait()
	const sentinel = "dur-sentinel"
	if err := s.Add(&Post{ID: sentinel, Author: "a", Text: "last", CreatedAt: time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	for _, p := range delta {
		seen[p.ID] = true
	}
	for !seen[sentinel] {
		for _, pp := range nextPosts(t, feed) {
			seen[pp.Post().ID] = true
		}
	}
	if len(owed) == 0 {
		t.Fatal("no Add began after the cursor was taken; the hand-off is untested")
	}
	for _, id := range owed {
		if !seen[id] {
			t.Errorf("post %s, added after the cursor was taken, is in neither the delta nor the feed", id)
		}
	}
}

// TestWatchFeedCursorCoversOnlyReceivedBatches: Add advances the WAL
// floors after it queues a batch on the feed, so the store's cursor
// can cover a batch its consumer has not taken. Feed.Next reads the
// floors before it takes, so its cursor covers exactly the posts it and
// earlier calls returned; it offers none once the subscription ended,
// nor on an in-memory store.
func TestWatchFeedCursorCoversOnlyReceivedBatches(t *testing.T) {
	s, err := OpenStoreDir(t.TempDir(), noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)
	if batch, c := feed.Next(); len(batch) != 0 || c == nil {
		t.Fatalf("an idle feed must yield no posts and a cursor, got %d posts, cursor %v", len(batch), c)
	}
	for round := 0; round < 3; round++ {
		if err := s.Add(durPost(2*round, round), durPost(2*round+1, round)); err != nil {
			t.Fatal(err)
		}
		if delta, err := s.PostsSince(s.DurableCursor()); err != nil || len(delta) != 0 {
			t.Fatalf("round %d: the store's cursor does not cover the queued batch (%d posts above, err %v)", round, len(delta), err)
		}
		batch, c := feed.Next()
		if len(batch) != 2 || c == nil {
			t.Fatalf("round %d: Next took %d posts, cursor %v; want the 2-post batch and a cursor", round, len(batch), c)
		}
		if delta, err := s.PostsSince(c); err != nil || len(delta) != 0 {
			t.Fatalf("round %d: cursor leaves %d posts uncovered (err %v)", round, len(delta), err)
		}
	}
	cancel()
	if _, c := feed.Next(); c != nil {
		t.Fatal("a cancelled subscription still yields cursors")
	}
	mem := NewStore()
	if _, c := mem.Watch(context.Background()).Next(); c != nil {
		t.Fatal("an in-memory store has no cursor")
	}
}

// TestWatchFeedCursorUnderConcurrentAdd: with writers running and a
// consumer that lags, every post acknowledged before a Next call was
// either taken by that call or an earlier one or lies above the cursor
// it returned — a consumer persisting the cursor never skips a post on
// catch-up.
func TestWatchFeedCursorUnderConcurrentAdd(t *testing.T) {
	s, err := OpenStoreDir(t.TempDir(), noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)

	const writers, perWriter = 4, 300
	var (
		mu    sync.Mutex
		acked []string
		wg    sync.WaitGroup
	)
	defer wg.Wait() // before the store closes, also when a check fails
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := durPost(w*100000+i, (w+i)%11)
				if err := s.Add(p); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, p.ID)
				mu.Unlock()
			}
		}(w)
	}

	received := make(map[string]bool)
	checked, lagged := 0, 0
	for len(received) < writers*perWriter {
		select {
		case <-feed.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("feed stalled at %d of %d posts", len(received), writers*perWriter)
		}
		if checked%3 == 0 {
			time.Sleep(time.Millisecond) // let a queue build up
		}
		mu.Lock()
		before := append([]string(nil), acked...)
		mu.Unlock()
		batch, c := feed.Next()
		if c == nil {
			t.Fatal("a durable store's live feed offered no cursor")
		}
		for _, pp := range batch {
			received[pp.Post().ID] = true
		}
		if len(batch) > 1 {
			lagged++
		}
		checked++
		delta, err := s.PostsSince(c)
		if err != nil {
			t.Fatal(err)
		}
		above := make(map[string]bool, len(delta))
		for _, p := range delta {
			above[p.ID] = true
		}
		for _, id := range before {
			if !received[id] && !above[id] {
				t.Fatalf("cursor covers %s, which the consumer has not taken", id)
			}
		}
	}
	if lagged == 0 {
		t.Fatalf("no Next took more than one post in %d calls: the consumer never lagged", checked)
	}
}

// TestWatchFeedNextReadsFloorsBeforeTaking pins the order inside Next:
// a batch applied between its floor read and its take is returned by
// that Next and lies above the cursor it returns. Taking first would
// hand back a cursor that covers the batch although Next never returned
// it, and a consumer persisting that cursor would skip the batch on
// catch-up.
func TestWatchFeedNextReadsFloorsBeforeTaking(t *testing.T) {
	s, err := OpenStoreDir(t.TempDir(), noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := s.Watch(ctx)
	added := []*Post{durPost(0, 0), durPost(1, 1), durPost(2, 2)}
	feed.afterFloors = func() {
		feed.afterFloors = nil
		if err := s.Add(added...); err != nil {
			t.Error(err)
		}
	}
	batch, c := feed.Next()
	if c == nil {
		t.Fatal("a durable store's live feed offered no cursor")
	}
	returned := make(map[string]bool, len(batch))
	for _, pp := range batch {
		returned[pp.Post().ID] = true
	}
	delta, err := s.PostsSince(c)
	if err != nil {
		t.Fatal(err)
	}
	above := make(map[string]bool, len(delta))
	for _, p := range delta {
		above[p.ID] = true
	}
	for _, p := range added {
		if !returned[p.ID] && !above[p.ID] {
			t.Fatalf("cursor %v covers %s, which Next did not return", c, p.ID)
		}
	}
}

// TestDurablePostsSinceReportsDamage: a WAL record damaged on disk after
// the open fails PostsSince, instead of handing back a short catch-up
// that reads as complete.
func TestDurablePostsSinceReportsDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cur := s.DurableCursor()
	for n := 0; n < 3; n++ {
		if err := s.Add(durPost(n, n)); err != nil {
			t.Fatal(err)
		}
	}
	if delta, err := s.PostsSince(cur); err != nil || len(delta) != 3 {
		t.Fatalf("intact WAL: %d posts since the cursor (err %v), want 3", len(delta), err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, walDirName, "stripe-0000", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment, got %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The second record's first payload byte: just past the first
	// record's frame and the second's 8-byte header.
	off := int64(8+binary.LittleEndian.Uint32(data[0:4])) + 8
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{data[off] ^ 0x01}, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if delta, err := s.PostsSince(cur); err == nil {
		t.Fatalf("PostsSince over a damaged record returned %d posts and no error", len(delta))
	}
}

// TestDurableSeedResumesAfterCrash: a directory whose seed crashed
// before the marker committed resumes seeding idempotently (durable
// posts skipped by ID); once the marker exists the seed never runs
// again.
func TestDurableSeedResumesAfterCrash(t *testing.T) {
	dir := t.TempDir()
	full := make([]*Post, 100)
	for i := range full {
		full[i] = durPost(i, i%7)
	}
	// Simulate a seed killed mid-way: 60 posts WAL-durable, no marker.
	s, err := OpenStoreDir(dir, noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(clonePosts(full[:60])...); err != nil {
		t.Fatal(err)
	}
	s.closeAbrupt()

	opts := noCompact(0)
	opts.Seed = func() ([]*Post, error) { return clonePosts(full), nil }
	re, err := OpenStoreDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(full) {
		t.Fatalf("resumed seed left %d posts, want %d", re.Len(), len(full))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	seeded := false
	opts.Seed = func() ([]*Post, error) { seeded = true; return nil, nil }
	again, err := OpenStoreDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if seeded {
		t.Fatal("seed ran again on a marker-complete directory")
	}
	if again.Len() != len(full) {
		t.Fatalf("recovered %d posts, want %d", again.Len(), len(full))
	}
}

// TestDurableShardMismatch: reopening with a conflicting explicit shard
// count is refused; the manifest's count wins when unspecified.
func TestDurableShardMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(durPost(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStoreDir(dir, noCompact(8)); err == nil {
		t.Fatal("conflicting shard count must be rejected")
	}
	re, err := OpenStoreDir(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 4 {
		t.Fatalf("manifest shard count not honored: %d", re.Shards())
	}
}

// TestWritePostsFileAtomic: the dump replaces the target atomically and
// a reopened LoadStore parses it whole.
func TestWritePostsFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.jsonl")
	if err := os.WriteFile(path, []byte("{\"garbage\""), 0o644); err != nil {
		t.Fatal(err)
	}
	posts := []*Post{durPost(1, 0), durPost(2, 1)}
	if err := WritePostsFile(path, posts); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := ReadPosts(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d posts, want 2", len(loaded))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left in dump dir: %v", entries)
	}
}
