package social

import (
	"context"
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/durable"
)

// snapFixture ingests a deterministic corpus with a compaction in the
// middle — so the directory holds per-stripe snapshot files plus a WAL
// tail — closes abruptly, and returns the data dir and the acknowledged
// listing.
func snapFixture(t *testing.T, shards, posts int) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(shards))
	if err != nil {
		t.Fatal(err)
	}
	var batch []*Post
	flushed := false
	for n := 0; n < posts; n++ {
		batch = append(batch, durPost(n, n%11))
		if len(batch) == 5 {
			if err := s.Add(batch...); err != nil {
				t.Fatal(err)
			}
			batch = nil
			if !flushed && n >= posts/2 {
				flushed = true
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := s.Add(batch...); err != nil {
		t.Fatal(err)
	}
	if !flushed {
		t.Fatalf("fixture too small to flush: %d posts", posts)
	}
	want := listAll(t, s)
	s.closeAbrupt()
	return dir, want
}

// nonEmptyStripes counts manifest stripes holding a snapshot.
func nonEmptyStripes(t *testing.T, dir string) int {
	t.Helper()
	man, err := durable.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range man.Snapshots {
		if name != "" {
			n++
		}
	}
	return n
}

// checkSnapLayout asserts the on-disk layout a compaction leaves: a
// current-version manifest, and a snapshot directory holding exactly
// one .snap file per non-empty stripe — the ones the manifest names.
func checkSnapLayout(t *testing.T, dir string) *durable.Manifest {
	t.Helper()
	man, err := durable.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != durable.ManifestVersion {
		t.Fatalf("manifest version %d, want %d", man.Version, durable.ManifestVersion)
	}
	want := map[string]bool{}
	for _, name := range man.Snapshots {
		if name != "" {
			want[name] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, snapDirName))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".snap" {
			t.Fatalf("snapshot directory holds %s, not a .snap file", e.Name())
		}
		got[e.Name()] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot directory holds %v, manifest names %v", got, want)
	}
	return man
}

// TestDurableWarmOpenIndexed: after a clean close, every stripe must
// recover through its snapshot's postings — no re-tokenization — and
// the listing must stay byte-identical to the acknowledged state, at
// stripe counts 1, 4 and 16.
func TestDurableWarmOpenIndexed(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStoreDir(dir, noCompact(shards))
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 10; b++ {
				var batch []*Post
				for i := 0; i < 8; i++ {
					n := b*8 + i
					batch = append(batch, durPost(n, n%17))
				}
				if err := s.Add(batch...); err != nil {
					t.Fatal(err)
				}
			}
			want := listAll(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			checkSnapLayout(t, dir)

			re, err := OpenStoreDir(dir, noCompact(0))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			st := re.Stats()
			if wantIdx := nonEmptyStripes(t, dir); st.RecoveredIndexed != wantIdx || st.RecoveredRebuilt != 0 {
				t.Fatalf("recovery split = %d indexed / %d rebuilt, want %d / 0",
					st.RecoveredIndexed, st.RecoveredRebuilt, wantIdx)
			}
			if got := listAll(t, re); !reflect.DeepEqual(got, want) {
				t.Fatal("warm-open listing not byte-identical to acknowledged state")
			}
			if st.DirtyStripes != 0 {
				t.Fatalf("clean warm open left %d dirty stripes", st.DirtyStripes)
			}
		})
	}
}

// TestDurableSidecarCorruptionFallback is the damage matrix for the
// snapshot file: one stripe's file torn at EVERY byte offset, and
// bit-flipped at every 7th byte. Damage inside the postings section
// must rebuild the stripe from its posts with the listing byte-identical
// to the acknowledged state; damage to the header or the posts section
// must fail the open with the file named and never serve a listing —
// as must a missing file, a future format and garbage. Run with -race.
func TestDurableSidecarCorruptionFallback(t *testing.T) {
	dir, want := snapFixture(t, 4, 25)
	man := checkSnapLayout(t, dir)
	var path string
	for _, name := range man.Snapshots {
		if name != "" {
			path = filepath.Join(dir, snapDirName, name)
			break
		}
	}
	if path == "" {
		t.Fatal("fixture produced no snapshot file")
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The postings section starts after the magic and the framed posts.
	postings := len(snapMagic) + durable.SectionHeaderLen + int(binary.LittleEndian.Uint32(full[len(snapMagic):]))
	if postings >= len(full) {
		t.Fatalf("postings section offset %d outside the %d-byte file", postings, len(full))
	}

	// reopen opens the damaged directory; damaged says whether the bytes
	// on disk differ from the intact file, postingsOnly whether all of
	// the damage sits in the postings section.
	reopen := func(t *testing.T, damaged, postingsOnly bool) {
		t.Helper()
		re, err := OpenStoreDir(dir, noCompact(0))
		if damaged && !postingsOnly {
			if err == nil {
				re.closeAbrupt()
				t.Fatal("a damaged posts section opened and served a listing")
			}
			if re != nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("posts-section damage: store %v, error %v; want no store and the file named", re, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("postings damage must rebuild, not fail the open: %v", err)
		}
		// closeAbrupt, not Close: a graceful close compacts the rebuilt
		// stripe, which would repair the file under the loop's feet.
		defer re.closeAbrupt()
		if got := listAll(t, re); !reflect.DeepEqual(got, want) {
			t.Fatal("listing not byte-identical to acknowledged state")
		}
		if st := re.Stats(); damaged != (st.RecoveredRebuilt > 0) {
			t.Fatalf("damaged=%v but %d stripes rebuilt", damaged, st.RecoveredRebuilt)
		}
	}
	write := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Torn at every cut offset: a crashed write that left a prefix. The
	// file is written atomically, so a real crash leaves the old file or
	// the new one — this pins the behaviour on a filesystem that breaks
	// that promise.
	for cut := 0; cut <= len(full); cut++ {
		write(full[:cut])
		reopen(t, cut < len(full), cut >= postings)
	}
	// A flipped byte anywhere: framing, checksum or structural
	// validation must catch it, in whichever section it lands.
	for off := 0; off < len(full); off += 7 {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x40
		write(bad)
		reopen(t, true, off >= postings)
	}
	// A future format, garbage, and a missing file.
	skew := append([]byte(nil), full...)
	copy(skew, "PSPSNAP2")
	write(skew)
	reopen(t, true, false)
	write([]byte("not a snapshot at all"))
	reopen(t, true, false)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	reopen(t, true, false)

	// The rebuild leaves the stripe dirty: one compaction repairs the
	// file, and the next open is fully indexed again.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0x40
	write(bad)
	re, err := OpenStoreDir(dir, noCompact(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	checkSnapLayout(t, dir)
	re, err = OpenStoreDir(dir, noCompact(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.RecoveredRebuilt != 0 || st.RecoveredIndexed == 0 {
		t.Fatalf("post-repair open = %d indexed / %d rebuilt, want all indexed",
			st.RecoveredIndexed, st.RecoveredRebuilt)
	}
	if got := listAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("post-repair listing not byte-identical to acknowledged state")
	}
}

// TestDurableSweepsOrphanSnapFiles: the open removes every snapshot
// directory entry the manifest does not name — a temp file left by a
// write killed inside WriteFileAtomic, and a snapshot file left by a
// compaction killed before its manifest commit — while the manifest's
// files and the listing stay intact.
func TestDurableSweepsOrphanSnapFiles(t *testing.T) {
	dir, want := snapFixture(t, 4, 25)
	man := checkSnapLayout(t, dir)
	snapDir := filepath.Join(dir, snapDirName)
	planted := []string{
		".stripe-0001-00000009.snap.tmp-123456",
		"stripe-0002-00000009.snap",
	}
	for _, name := range planted {
		if err := os.WriteFile(filepath.Join(snapDir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenStoreDir(dir, noCompact(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.closeAbrupt()
	for _, name := range planted {
		if _, err := os.Stat(filepath.Join(snapDir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the open: %v", name, err)
		}
	}
	if got := checkSnapLayout(t, dir); !reflect.DeepEqual(got, man) {
		t.Fatalf("manifest changed across the sweep: %+v -> %+v", man, got)
	}
	if got := listAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("listing changed across the sweep")
	}
}

// TestDurableMisroutedSnapshotKeepsInstalledStripe: a snapshot whose
// posts route to another stripe is re-tokenized into that stripe, and
// that stripe's own snapshot install must not drop them. Both orders of
// the two loads must end with every post listed; one CPU makes the
// open load stripe 0 (the mis-routed file) before stripe 1 installs,
// the order in which an install used to replace the re-tokenized posts.
func TestDurableMisroutedSnapshotKeepsInstalledStripe(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	router := NewStoreShards(2)
	// stripeOne returns n posts that route to stripe 1, from ID base.
	stripeOne := func(base, n int) []*Post {
		var out []*Post
		for k := base; len(out) < n; k++ {
			if p := durPost(k, k%11); router.shardFor(p.CreatedAt) == 1 {
				out = append(out, p)
			}
		}
		return out
	}
	closed := func(posts []*Post) (string, *durable.Manifest) {
		dir := t.TempDir()
		s, err := OpenStoreDir(dir, noCompact(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(posts...); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, checkSnapLayout(t, dir)
	}
	own, foreign := stripeOne(0, 20), stripeOne(1000, 20)
	dir, man := closed(own)
	src, srcMan := closed(foreign)
	// Stripe 0 of dir gets src's stripe-1 file: every post in it routes
	// to stripe 1.
	data, err := os.ReadFile(filepath.Join(src, snapDirName, srcMan.Snapshots[1]))
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("stripe-0000-%08d.snap", man.Gen)
	if err := os.WriteFile(filepath.Join(dir, snapDirName, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	man.Snapshots[0] = name
	if err := man.Write(dir); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStoreDir(dir, noCompact(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.closeAbrupt()
	mem := NewStoreShards(2)
	if err := mem.Add(append(own, foreign...)...); err != nil {
		t.Fatal(err)
	}
	if got, want := listAll(t, re), listAll(t, mem); !reflect.DeepEqual(got, want) {
		t.Fatalf("listing after a mis-routed stripe's rebuild differs from the in-memory store (%d posts registered)", re.Len())
	}
	if st := re.Stats(); st.RecoveredIndexed != 1 || st.RecoveredRebuilt != 1 {
		t.Fatalf("recovery split %d indexed / %d rebuilt, want 1 / 1", st.RecoveredIndexed, st.RecoveredRebuilt)
	}
}

// TestDurableBackwardCompatV1Dir: data directories from before the
// single-file snapshot — a version-0 manifest naming one whole-corpus
// JSON Lines snapshot, and a version-2 manifest naming a posts file and
// an index sidecar per stripe — must fail the open with an error naming
// their version and the -dump/-corpus migration route, and must be left
// byte-identical: not even the orphan sweep may run.
func TestDurableBackwardCompatV1Dir(t *testing.T) {
	var corpus strings.Builder
	var posts []*Post
	for n := 0; n < 30; n++ {
		posts = append(posts, durPost(n, n%9))
	}
	if err := WritePosts(&corpus, posts); err != nil {
		t.Fatal(err)
	}
	seg := walFrame([]byte(`[{"id":"tail-1","author":"a","text":"wal tail","created_at":"2024-03-02T08:00:00Z","region":"EU"}]`))
	for _, tc := range []struct {
		version int
		files   map[string]string
	}{
		{0, map[string]string{
			"MANIFEST.json":            `{"shards":4,"generation":7,"snapshot":"snap-00000007.jsonl","floors":[0,0,0,0]}`,
			"snap/snap-00000007.jsonl": corpus.String(),
		}},
		{2, map[string]string{
			"MANIFEST.json": `{"version":2,"shards":4,"generation":3,"floors":[0,0,0,0],` +
				`"stripes":[{"posts":"stripe-0000-00000003.jsonl","index":"stripe-0000-00000003.idx"},{},{},{}]}`,
			"snap/stripe-0000-00000003.jsonl":           corpus.String(),
			"snap/stripe-0000-00000003.idx":             "PSPIDX1\n\x00\x00\x00\x00\x00\x00\x00\x00",
			"snap/.stripe-0001-00000003.idx.tmp-424242": "torn",
			"snap/stripe-0002-00000002.jsonl":           "orphan",
		}},
	} {
		t.Run(fmt.Sprintf("version=%d", tc.version), func(t *testing.T) {
			dir := t.TempDir()
			tc.files["wal/stripe-0000/00000000000000000001.seg"] = string(seg)
			for name, content := range tc.files {
				path := filepath.Join(dir, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := treeOf(t, dir)
			s, err := OpenStoreDir(dir, noCompact(0))
			if err == nil {
				s.closeAbrupt()
				t.Fatal("an old-format data dir opened")
			}
			for _, want := range []string{fmt.Sprintf("version %d", tc.version), "-dump", "-corpus"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal %q does not mention %q", err, want)
				}
			}
			if after := treeOf(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused dir changed:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// treeOf maps every entry under dir to its content ("<dir>" for
// directories).
func treeOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if e.IsDir() {
			tree[rel] = "<dir>"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestDurableIncrementalCompaction pins the delta-bounded contract: a
// compaction after a small delta rewrites only the delta's stripes (the
// clean stripes keep their snapshot files and floors verbatim), and a
// compaction with no delta at all writes nothing — not even a manifest.
func TestDurableIncrementalCompaction(t *testing.T) {
	const shards = 8
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for n := 0; n < 80; n++ {
		if err := s.Add(durPost(n, n%16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	man0 := checkSnapLayout(t, dir)

	// A delta confined to one day lands on one stripe.
	delta := []*Post{durPost(900, 3), durPost(901, 3), durPost(902, 3)}
	if err := s.Add(delta...); err != nil {
		t.Fatal(err)
	}
	target := s.shardFor(delta[0].CreatedAt)
	if st := s.Stats(); st.DirtyStripes != 1 {
		t.Fatalf("delta dirtied %d stripes, want 1", st.DirtyStripes)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.CompactedStripes - base.CompactedStripes; got != 1 {
		t.Fatalf("delta compaction rewrote %d stripes, want 1", got)
	}
	if full, inc := base.CompactionBytes, st.CompactionBytes-base.CompactionBytes; inc*4 >= full {
		t.Fatalf("delta compaction wrote %d bytes vs %d for the full corpus — not delta-bounded", inc, full)
	}
	man1 := checkSnapLayout(t, dir)
	for i := range man1.Snapshots {
		if i == target {
			if man1.Snapshots[i] == man0.Snapshots[i] {
				t.Fatalf("dirty stripe %d kept its old snapshot file", i)
			}
			continue
		}
		if man1.Snapshots[i] != man0.Snapshots[i] || man1.Floors[i] != man0.Floors[i] {
			t.Fatalf("clean stripe %d was rewritten: %q -> %q (floor %d -> %d)",
				i, man0.Snapshots[i], man1.Snapshots[i], man0.Floors[i], man1.Floors[i])
		}
	}

	// Idle early-exit: no applied records, no writes, no new manifest.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	idle := s.Stats()
	if idle.CompactionBytes != st.CompactionBytes || idle.CompactedStripes != st.CompactedStripes {
		t.Fatal("idle compaction wrote bytes")
	}
	man2, err := durable.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Gen != man1.Gen {
		t.Fatalf("idle compaction advanced the manifest generation %d -> %d", man1.Gen, man2.Gen)
	}
}

// TestTotalMatchesMultiKeyEquivalence pins the sublinear multi-key
// count paths (posting-list intersection for multiple must-terms,
// inclusion–exclusion for two-tag unions) to the brute-force predicate,
// across shard counts and query windows.
func TestTotalMatchesMultiKeyEquivalence(t *testing.T) {
	posts, err := Generate(DefaultCorpusSpec(21434))
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{MustTerms: []string{"excavator", "limp"}},
		{MustTerms: []string{"excavator", "limp", "mode"}},
		{MustTerms: []string{"excavator", "limp"}, Since: ts(2021, 6, 1), Until: ts(2022, 6, 1)},
		{MustTerms: []string{"excavator", "nosuchterm"}},
		{AnyTags: []string{"dpfdelete", "chiptuning"}},
		{AnyTags: []string{"dpfdelete", "chiptuning"}, Since: ts(2022, 1, 1), Until: ts(2023, 1, 1)},
		{AnyTags: []string{"dpfdelete", "dpfdelete"}},
		{AnyTags: []string{"dpfdelete", "nosuchtag"}},
	}
	for _, shards := range []int{1, 4, 16} {
		s := NewStoreShards(shards)
		if err := s.Add(clonePosts(posts)...); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want := 0
			for _, p := range posts {
				if q.MatchesPost(p) {
					want++
				}
			}
			q.MaxResults = 1
			page, err := s.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if page.TotalMatches != want {
				t.Errorf("query %d at %d shards: TotalMatches = %d, brute force = %d",
					qi, shards, page.TotalMatches, want)
			}
			if qi < 3 && want == 0 {
				t.Errorf("query %d matches nothing; equivalence is vacuous", qi)
			}
		}
	}
}

// TestDurableSidecarOddPostRoundTrip: the binary snapshot must carry
// posts that JSON renders with non-trivial detail — fixed and named
// non-UTC zones, sub-second precision, unicode and newlines in the
// text, an empty author, a timestamp beyond the Unix-nanosecond range —
// through a warm indexed open with the listing byte-identical to the
// acknowledged state.
func TestDurableSidecarOddPostRoundTrip(t *testing.T) {
	odd := []*Post{
		{
			ID:        "odd-utc",
			Author:    "plain",
			Text:      "baseline #turbo chatter about the excavator",
			CreatedAt: time.Date(2024, 5, 1, 8, 0, 0, 123456789, time.UTC),
			Region:    RegionEurope,
			Metrics:   Metrics{Views: 10},
		},
		{
			ID:        "odd-cest",
			Author:    "", // Validate allows an empty author
			Text:      "remap \"quotes\" and\nnewlines #turbo 🚜 χαίρετε",
			CreatedAt: time.Date(2024, 5, 2, 9, 30, 0, 120000000, time.FixedZone("CEST", 2*3600)),
			Region:    RegionEurope,
			Metrics:   Metrics{Views: 1, Likes: 2, Reposts: 3, Replies: 4},
		},
		{
			ID:        "odd-nst",
			Author:    "newfoundland",
			Text:      "negative half-hour offset #turbo",
			CreatedAt: time.Date(2024, 5, 3, 6, 15, 45, 1, time.FixedZone("NST", -(3*3600+30*60))),
			Region:    RegionNorthAmerica,
			Metrics:   Metrics{},
		},
		{
			ID:        "odd-npt",
			Author:    "kathmandu",
			Text:      "quarter-hour offset #turbo",
			CreatedAt: time.Date(1999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("NPT", 5*3600+45*60)),
			Region:    RegionAsiaPacific,
			Metrics:   Metrics{Views: 7},
		},
		{
			ID:        "odd-beyond-nano",
			Author:    "deep-future",
			Text:      "timestamp beyond the Unix-nanosecond range #turbo",
			CreatedAt: time.Date(2400, 1, 1, 0, 0, 0, 5, time.FixedZone("", -7*3600)),
			Region:    RegionEurope,
		},
	}
	dir := t.TempDir()
	s, err := OpenStoreDir(dir, noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(clonePosts(odd)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSnapLayout(t, dir)
	want := listAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStoreDir(dir, noCompact(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if got, idx := nonEmptyStripes(t, dir), st.RecoveredIndexed; idx != got || st.RecoveredRebuilt != 0 {
		t.Fatalf("warm open: indexed %d of %d stripes, rebuilt %d; want all indexed",
			idx, got, st.RecoveredRebuilt)
	}
	if got := listAll(t, re); !reflect.DeepEqual(want, got) {
		t.Fatalf("odd-post listing diverged after indexed reopen:\nwant %s\ngot  %s", want, got)
	}
}
