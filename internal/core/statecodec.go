package core

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
)

// The binary forms of FillStates and MemoStates, each the payload of
// one durable section (durable.AppendSection) of the monitor's state
// file. Strings are uvarint-length-prefixed.
//
// Fills payload:
//
//	uvarint  fill count
//	per fill: the query — AnyTags and MustTerms as a uvarint count and
//	  strings, Region as a string, Since and Until as times — then a
//	  uvarint post count and the post IDs in listing order
//
// A time is a byte 0 for the zero time, else a byte 1, varint Unix
// seconds and uvarint nanoseconds (decoded in UTC: only the instant
// reaches a cache key or a match).
//
// Memos payload:
//
//	uvarint  memo count
//	per memo: Sig and Key as strings; a uvarint post count n; a byte 1
//	  when the memo holds its whole fill, else a byte 0 and the n fill
//	  positions ascending; n × sai.FeaturesLen bytes of features; a
//	  uvarint filtered count; a byte 1 when a graph follows, else 0
//
// A graph is a uvarint document count; a uvarint tag count and, per
// tag in ascending order, the tag and its uvarint document frequency;
// then, per tag in the same order, its row: a uvarint length, the
// co-occurring tags' indices ascending, and their uvarint counts in
// the same order. Ascending ints are uvarint gaps to their predecessor,
// the first its value.

// AppendFills appends the binary form of fills.
func AppendFills(b []byte, fills []FillState) []byte {
	b = binary.AppendUvarint(b, uint64(len(fills)))
	for _, fs := range fills {
		b = appendStrings(b, fs.Query.AnyTags)
		b = appendStrings(b, fs.Query.MustTerms)
		b = durable.AppendString(b, string(fs.Query.Region))
		b = appendTime(b, fs.Query.Since)
		b = appendTime(b, fs.Query.Until)
		b = appendStrings(b, fs.PostIDs)
	}
	return b
}

// DecodeFills decodes a payload AppendFills wrote.
func DecodeFills(payload []byte) ([]FillState, error) {
	r := durable.NewReader(payload, "core: fills")
	fills := make([]FillState, r.Count())
	for i := range fills {
		q := &fills[i].Query
		// The query outlives the payload inside its fill; the IDs do not.
		q.AnyTags = readStrings(r, true)
		q.MustTerms = readStrings(r, true)
		q.Region = social.Region(strings.Clone(r.Str()))
		q.Since = readTime(r)
		q.Until = readTime(r)
		fills[i].PostIDs = readStrings(r, false)
	}
	return fills, finish(r)
}

// AppendMemos appends the binary form of memos.
func AppendMemos(b []byte, memos []MemoState) []byte {
	b = binary.AppendUvarint(b, uint64(len(memos)))
	for _, ms := range memos {
		b = durable.AppendString(b, ms.Sig)
		b = durable.AppendString(b, ms.Key)
		b = binary.AppendUvarint(b, uint64(len(ms.Features)))
		if ms.Kept == nil {
			b = append(b, 1)
		} else {
			b = appendAscending(append(b, 0), ms.Kept)
		}
		for _, f := range ms.Features {
			b = sai.AppendFeatures(b, f)
		}
		b = binary.AppendUvarint(b, uint64(ms.Filtered))
		if ms.Graph == nil {
			b = append(b, 0)
			continue
		}
		b = appendGraph(append(b, 1), ms.Graph)
	}
	return b
}

// DecodeMemos decodes a payload AppendMemos wrote. Its strings are
// copied out of the payload, so the memos retain none of it.
func DecodeMemos(payload []byte) ([]MemoState, error) {
	r := durable.NewReader(payload, "core: memos")
	memos := make([]MemoState, r.Count())
	for i := range memos {
		ms := &memos[i]
		ms.Sig = strings.Clone(r.Str())
		ms.Key = strings.Clone(r.Str())
		n := r.Count()
		if !readFlag(r) {
			// Positions are range-checked against the fill at import.
			ms.Kept = readAscending(r, n)
		}
		raw := r.Bytes(n * sai.FeaturesLen)
		if r.Err() != nil {
			break
		}
		ms.Features = make([]sai.PostFeatures, n)
		for j := range ms.Features {
			f, err := sai.DecodeFeatures(raw[j*sai.FeaturesLen : (j+1)*sai.FeaturesLen])
			if err != nil {
				r.Fail("memo %d: %v", i, err)
				break
			}
			ms.Features[j] = f
		}
		ms.Filtered = readInt(r)
		if readFlag(r) {
			ms.Graph = readGraph(r)
		}
	}
	return memos, finish(r)
}

func appendGraph(b []byte, g *nlp.CooccurrenceGraph) []byte {
	docs, docFreq, counts := g.Counts()
	// Every tag of a row is an observed tag, so docFreq's keys are the
	// whole dictionary.
	tags := make([]string, 0, len(docFreq))
	for t := range docFreq {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	index := make(map[string]int, len(tags))
	b = binary.AppendUvarint(b, uint64(docs))
	b = binary.AppendUvarint(b, uint64(len(tags)))
	for i, t := range tags {
		index[t] = i
		b = durable.AppendString(b, t)
		b = binary.AppendUvarint(b, uint64(docFreq[t]))
	}
	row := make([]int, 0, len(tags))
	for _, t := range tags {
		row = row[:0]
		for u := range counts[t] {
			row = append(row, index[u])
		}
		sort.Ints(row)
		b = appendAscending(binary.AppendUvarint(b, uint64(len(row))), row)
		for _, j := range row {
			b = binary.AppendUvarint(b, uint64(counts[t][tags[j]]))
		}
	}
	return b
}

func readGraph(r *durable.Reader) *nlp.CooccurrenceGraph {
	docs := readInt(r)
	tags := make([]string, r.Count())
	docFreq := make(map[string]int, len(tags))
	for i := range tags {
		tags[i] = strings.Clone(r.Str())
		if i > 0 && tags[i] <= tags[i-1] {
			r.Fail("graph tags out of order at %q", tags[i])
		}
		docFreq[tags[i]] = readInt(r)
	}
	counts := make(map[string]map[string]int)
	for _, t := range tags {
		cols := readAscending(r, r.Count())
		if len(cols) == 0 || r.Err() != nil {
			continue
		}
		if last := cols[len(cols)-1]; last >= len(tags) {
			r.Fail("graph row %q names tag %d of %d", t, last, len(tags))
			break
		}
		row := make(map[string]int, len(cols))
		for _, j := range cols {
			row[tags[j]] = readInt(r)
		}
		counts[t] = row
	}
	return nlp.GraphFromCounts(docs, docFreq, counts)
}

// appendAscending appends strictly ascending non-negative ints, each as
// the uvarint gap to its predecessor (the first as its value).
func appendAscending(b []byte, xs []int) []byte {
	prev := 0
	for _, x := range xs {
		b = binary.AppendUvarint(b, uint64(x-prev))
		prev = x
	}
	return b
}

// readAscending reads n ints appendAscending wrote.
func readAscending(r *durable.Reader, n int) []int {
	xs := make([]int, n)
	prev := 0
	for i := range xs {
		d := readInt(r)
		if i > 0 && d == 0 {
			r.Fail("values not strictly ascending at %d", i)
		}
		prev += d
		xs[i] = prev
	}
	return xs
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = durable.AppendString(b, s)
	}
	return b
}

// readStrings reads what appendStrings wrote; with clone, the strings
// are copied out of the payload.
func readStrings(r *durable.Reader, clone bool) []string {
	ss := make([]string, r.Count())
	for i := range ss {
		ss[i] = r.Str()
		if clone {
			ss[i] = strings.Clone(ss[i])
		}
	}
	return ss
}

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = binary.AppendVarint(append(b, 1), t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// readFlag reads a byte that must be 0 or 1.
func readFlag(r *durable.Reader) bool {
	b := r.Bytes(1)
	if r.Err() != nil {
		return false
	}
	if b[0] > 1 {
		r.Fail("flag byte %d", b[0])
	}
	return b[0] == 1
}

// readInt reads a uvarint that must fit a non-negative int32, so sums
// of a few of them cannot overflow.
func readInt(r *durable.Reader) int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

func readTime(r *durable.Reader) time.Time {
	if !readFlag(r) {
		return time.Time{}
	}
	sec := r.Varint()
	nsec := r.Uvarint()
	if nsec >= 1e9 {
		r.Fail("%d nanoseconds out of range", nsec)
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// finish reports a reader's failure, or trailing bytes after a payload
// that decoded cleanly.
func finish(r *durable.Reader) error {
	if r.Err() == nil && r.Remaining() != 0 {
		r.Fail("%d trailing bytes", r.Remaining())
	}
	return r.Err()
}
