package social

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/psp-framework/psp/internal/durable"
)

// A stripe snapshot file (snap/stripe-<i>-<gen>.snap) is the whole
// compacted state of one stripe — its posts and its posting lists — in
// one binary file, so a warm open rebuilds the stripe with one file
// read and a varint scan: no JSON parsing, no tokenization. The file
// holds two sections, each framed by its own length and CRC-32C, so
// damage is attributed to the section it hit:
//
//   - posts is the data itself. A bad header or posts section fails the
//     open with an error naming the stripe and the file; nothing else
//     holds those posts once the WAL is truncated past them.
//   - postings is derived from posts. A bad postings section — or posts
//     that route to another stripe of the opening store — re-tokenizes
//     the stripe from the decoded posts and leaves it dirty, so the next
//     compaction writes a fresh file.
//
// Each post is stored once, deliberately. The file is written by
// durable.WriteFileAtomic (temp file, fsync, rename, directory fsync),
// so a crash leaves the old file or the new one, never a torn one; the
// CRCs then cover every byte, so media damage is detected rather than
// served. A second copy would only guard against media loss, and that
// is replication's job, not the snapshot format's — the WAL segments
// and the manifest hold single copies too. JSON Lines remains the
// interchange format (WritePosts/ReadPosts, the daemons' -corpus and
// -dump), never a recovery input.
//
// On-disk layout (integers little-endian unless marked (u)varint):
//
//	offset 0   8-byte magic "PSPSNAP1" (the version lives in the magic)
//	offset 8   posts section
//	then       postings section, ending the file
//
// Each section is framed by its payload length and CRC-32C
// (durable.AppendSection).
//
// Posts payload:
//
//	uvarint  post count
//	per post, in the stripe's (CreatedAt, ID) order:
//	  ID, Author, Text, Region as uvarint length + bytes
//	  varint   CreatedAt as Unix seconds
//	  uvarint  CreatedAt nanoseconds within the second (< 1e9)
//	  varint   CreatedAt zone offset in seconds
//	  uvarint  Views, Likes, Reposts, Replies
//
// Every post a durable store holds passed json.Marshal before it was
// logged, so its year is within 0–9999 and the (seconds, nanoseconds,
// offset) triple reproduces it exactly; RFC 3339 renders only the
// offset, so dropping the zone name cannot change a marshaled listing.
//
// Postings payload: two maps, tags then terms, each:
//
//	uvarint  key count
//	per key, in ascending byte order:
//	  uvarint  key length, then the key bytes
//	  uvarint  posting count (≥ 1; empty lists are never written)
//	  postings as uvarint positions into the post order above,
//	  delta-encoded: first position absolute, every later one the gap
//	  to its predecessor (> 0 — positions ascend strictly)
const snapMagic = "PSPSNAP1"

func snapErrf(format string, args ...any) error {
	return fmt.Errorf("social: stripe snapshot: %s", fmt.Sprintf(format, args...))
}

// encodeSnapshot renders one stripe generation as a snapshot file.
func encodeSnapshot(g *shardGen) ([]byte, error) {
	buf := append(make([]byte, 0, 4096), snapMagic...)
	buf = durable.AppendSection(buf, func(b []byte) []byte {
		b = binary.AppendUvarint(b, uint64(len(g.byTime)))
		for _, p := range g.byTime {
			_, off := p.CreatedAt.Zone()
			b = durable.AppendString(b, p.ID)
			b = durable.AppendString(b, p.Author)
			b = durable.AppendString(b, p.Text)
			b = durable.AppendString(b, string(p.Region))
			b = binary.AppendVarint(b, p.CreatedAt.Unix())
			b = binary.AppendUvarint(b, uint64(p.CreatedAt.Nanosecond()))
			b = binary.AppendVarint(b, int64(off))
			b = binary.AppendUvarint(b, uint64(p.Metrics.Views))
			b = binary.AppendUvarint(b, uint64(p.Metrics.Likes))
			b = binary.AppendUvarint(b, uint64(p.Metrics.Reposts))
			b = binary.AppendUvarint(b, uint64(p.Metrics.Replies))
		}
		return b
	})
	pos := make(map[*Post]int, len(g.byTime))
	for i, p := range g.byTime {
		pos[p] = i
	}
	var err error
	buf = durable.AppendSection(buf, func(b []byte) []byte {
		for _, m := range []map[string][]*Post{g.byTag, g.byTerm} {
			keys := make([]string, 0, len(m))
			for k := range m {
				if len(m[k]) > 0 {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			b = binary.AppendUvarint(b, uint64(len(keys)))
			for _, k := range keys {
				b = durable.AppendString(b, k)
				b = binary.AppendUvarint(b, uint64(len(m[k])))
				prev := 0
				for j, p := range m[k] {
					i, ok := pos[p]
					if !ok {
						err = fmt.Errorf("social: write stripe snapshot: posting for %q not in the generation's time index", k)
						return b
					}
					if j == 0 {
						b = binary.AppendUvarint(b, uint64(i))
					} else {
						b = binary.AppendUvarint(b, uint64(i-prev))
					}
					prev = i
				}
			}
		}
		return b
	})
	return buf, err
}

// writeSnapshotFile atomically writes the snapshot file for one stripe
// generation, returning the bytes written.
func writeSnapshotFile(path string, g *shardGen) (int64, error) {
	data, err := encodeSnapshot(g)
	if err != nil {
		return 0, err
	}
	err = durable.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// readSection is durable.ReadSection with the error naming the stripe
// snapshot format.
func readSection(data []byte, name string) (payload, rest []byte, err error) {
	payload, rest, err = durable.ReadSection(data, name)
	if err != nil {
		return nil, nil, snapErrf("%v", err)
	}
	return payload, rest, nil
}

// decodeSnapshotPosts verifies a snapshot file's header and posts
// section and decodes the posts, returning the bytes after them — the
// postings section, for decodePostings. An error means the stripe's
// data itself is damaged.
func decodeSnapshotPosts(data []byte) (posts []*Post, postings []byte, err error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, nil, snapErrf("bad magic (not a %q file)", snapMagic)
	}
	payload, postings, err := readSection(data[len(snapMagic):], "posts")
	if err != nil {
		return nil, nil, err
	}
	r := durable.NewReader(payload, "social: stripe snapshot")
	// Every post costs well over one payload byte, so a count beyond the
	// remaining payload is corruption — Count catches it before the
	// allocation.
	n := r.Count()
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	// One block for every Post struct: the stripe's posts live and die
	// together, and 72k individual allocations are what they would
	// otherwise cost the open (and every later GC scan).
	block := make([]Post, n)
	posts = make([]*Post, n)
	for i := range posts {
		p := &block[i]
		p.ID = r.Str()
		p.Author = r.Str()
		p.Text = r.Str()
		p.Region = Region(r.Str())
		sec := r.Varint()
		nsec := r.Uvarint()
		off := r.Varint()
		p.Metrics.Views = int(r.Uvarint())
		p.Metrics.Likes = int(r.Uvarint())
		p.Metrics.Reposts = int(r.Uvarint())
		p.Metrics.Replies = int(r.Uvarint())
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		if nsec >= 1e9 {
			return nil, nil, snapErrf("post %d: %d nanoseconds out of range", i, nsec)
		}
		p.CreatedAt = decodeTime(sec, int64(nsec), int(off))
		if err := p.Validate(); err != nil {
			return nil, nil, snapErrf("post %d: %v", i, err)
		}
		posts[i] = p
	}
	if r.Remaining() != 0 {
		return nil, nil, snapErrf("%d trailing bytes after the posts", r.Remaining())
	}
	return posts, postings, nil
}

// decodeTime reconstructs a timestamp from its encoded (Unix seconds,
// nanoseconds, zone offset seconds) triple. A zero offset maps to UTC —
// RFC 3339 renders both time.UTC and a zero FixedZone as "Z", so the
// choice cannot change a marshaled listing.
func decodeTime(sec, nsec int64, off int) time.Time {
	t := time.Unix(sec, nsec)
	if off == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", off))
}

// decodePostings verifies a snapshot file's postings section and
// rebuilds the stripe generation over posts. Any mismatch — framing,
// checksum, a count or position that contradicts the posts — returns
// an error, and the caller re-tokenizes posts instead.
func decodePostings(data []byte, posts []*Post) (*shardGen, error) {
	payload, rest, err := readSection(data, "postings")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, snapErrf("%d trailing bytes after the postings section", len(rest))
	}
	r := durable.NewReader(payload, "social: stripe snapshot")
	g := &shardGen{byTime: posts}
	arena := &postArena{}
	g.byTag = decodeKeys(r, posts, arena)
	g.byTerm = decodeKeys(r, posts, arena)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Remaining() != 0 {
		return nil, snapErrf("%d trailing bytes after the term map", r.Remaining())
	}
	return g, nil
}

// postArena hands out posting-list slices from shared blocks, so a
// section with tens of thousands of keys costs a handful of
// allocations rather than one per key. Slices are full-capacity
// subslices, so a later append can never bleed into a neighbour.
type postArena struct{ buf []*Post }

func (a *postArena) alloc(n int) []*Post {
	const chunk = 1 << 13
	if n > chunk {
		return make([]*Post, n)
	}
	if n > len(a.buf) {
		a.buf = make([]*Post, chunk)
	}
	out := a.buf[:n:n]
	a.buf = a.buf[n:]
	return out
}

// decodeKeys decodes one sorted key→postings map against the posts
// order, validating sortedness, strict position ascent and bounds as it
// goes.
func decodeKeys(r *durable.Reader, posts []*Post, arena *postArena) map[string][]*Post {
	// Every key costs at least three payload bytes (length, one key
	// byte, posting count), so Count catches a damaged count before the
	// allocation, not by crawling to the truncation point.
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	m := make(map[string][]*Post, n)
	prevKey := ""
	for i := 0; i < n; i++ {
		key := r.Str()
		cnt := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if key == "" || (i > 0 && key <= prevKey) {
			r.Fail("keys out of order at %q", key)
			return nil
		}
		prevKey = key
		if cnt == 0 || cnt > uint64(len(posts)) {
			r.Fail("key %q posting count %d with %d posts", key, cnt, len(posts))
			return nil
		}
		plist := arena.alloc(int(cnt))
		pos := 0
		for j := range plist {
			d := r.Uvarint()
			if r.Err() != nil {
				return nil
			}
			if j == 0 {
				pos = int(d)
			} else {
				if d == 0 {
					r.Fail("key %q postings not strictly ascending", key)
					return nil
				}
				pos += int(d)
			}
			if pos < 0 || pos >= len(posts) {
				r.Fail("key %q posting position %d with %d posts", key, pos, len(posts))
				return nil
			}
			plist[j] = posts[pos]
		}
		m[key] = plist
	}
	return m
}
