package social

import (
	"container/heap"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The store stripes its corpus across N shards keyed by CreatedAt time
// bucket: bucket b = floor(CreatedAt / shardBucketNanos) lives on shard
// b mod N. Each shard publishes an immutable snapshot of its time, tag
// and term indices behind an atomic pointer, so readers run entirely
// lock-free — they load one coherent snapshot per shard and stream it —
// while writers serialize only against other writers of the same
// stripe: a successor snapshot is built aside and committed with a
// single pointer swap (RCU-style copy-on-write).

// shardBucketNanos is the width of one CreatedAt time bucket (one UTC
// day). Posts of the same day always share a shard; consecutive days
// round-robin across shards, so a corpus spanning weeks spreads evenly
// at any stripe count.
const shardBucketNanos = int64(24 * time.Hour)

// bucketOf maps a timestamp to its time bucket. Floor division keeps
// pre-1970 timestamps (negative UnixNano) in well-defined buckets.
func bucketOf(t time.Time) int64 {
	n := t.UnixNano()
	b := n / shardBucketNanos
	if n < 0 && n%shardBucketNanos != 0 {
		b--
	}
	return b
}

// shardCompactThreshold bounds the delta generation of a snapshot: once
// a commit would push the delta past this many posts, the commit folds
// base and delta into a fresh base instead. Copy-on-write makes every
// commit pay for the structures it replaces, so the threshold is the
// knob between write cost and read fan-in: small commits copy O(delta)
// map entries instead of O(shard), readers merge at most two sorted
// sources per posting list, and the O(shard) fold is amortized over the
// threshold's worth of commits. A var only so tests can lower it to
// exercise compaction on small corpora.
var shardCompactThreshold = 1024

// shardGen is one immutable index generation: a (CreatedAt, ID)-sorted
// time index plus tag and term posting maps over a disjoint set of
// posts. Generations are never mutated after publication — writers
// build successors aside — so any goroutine may read one without
// holding a lock. The posting lists double as the generation's token
// cache: a post carries term t iff it appears in byTerm[t], so
// membership questions (the must-term residual filter) are answered by
// sorted-list seeks instead of per-post term-set maps — one fewer
// O(shard) map to copy on every fold, and the exact structure the
// stripe snapshot file persists (see snapfile.go).
type shardGen struct {
	byTime []*Post
	byTag  map[string][]*Post
	byTerm map[string][]*Post
}

// emptyGen is the shared zero generation. Lookups on its nil maps are
// well-defined (a nil map reads as empty), so fresh shards and
// just-compacted snapshots alias it instead of allocating.
var emptyGen = &shardGen{}

// shardSnapshot is one published version of a shard: a large compacted
// base generation plus a small delta generation holding the most recent
// commits. The two generations partition the shard's posts, every
// posting list is sorted within its generation, and both are immutable
// — a reader that loaded the snapshot owns a coherent view of the whole
// stripe for as long as it keeps the pointer, regardless of how many
// commits land meanwhile.
type shardSnapshot struct {
	base, delta *shardGen
}

// emptySnapshot backs freshly constructed shards.
var emptySnapshot = &shardSnapshot{base: emptyGen, delta: emptyGen}

// shard is one stripe of the Store. mu is a writer–writer lock only: it
// serializes successor construction and the commit swap against other
// writers of the same stripe. Readers never take it — they load snap.
type shard struct {
	mu   sync.Mutex
	snap atomic.Pointer[shardSnapshot]
}

func newShard() *shard {
	sh := &shard{}
	sh.snap.Store(emptySnapshot)
	return sh
}

// view returns the shard's current published snapshot. Safe to call
// from any goroutine; the result never changes under the caller.
func (sh *shard) view() *shardSnapshot { return sh.snap.Load() }

// commit merges a validated, (CreatedAt, ID)-sorted sub-batch into the
// shard by publishing a successor snapshot: small commits extend the
// delta generation (copying O(delta) index entries), and once the delta
// would outgrow shardCompactThreshold the commit folds base, delta and
// batch into a fresh base. Readers holding the previous snapshot are
// unaffected either way. The profiles carry each post's distinct
// normalized hashtags and term set, tokenized by the caller outside the
// lock. Caller holds sh.mu.
func (sh *shard) commit(profiles []*PostProfile) {
	cur := sh.snap.Load()
	var next *shardSnapshot
	if len(cur.delta.byTime)+len(profiles) >= shardCompactThreshold {
		next = &shardSnapshot{base: foldGens(cur.base, cur.delta, profiles), delta: emptyGen}
	} else {
		next = &shardSnapshot{base: cur.base, delta: foldGens(cur.delta, emptyGen, profiles)}
	}
	sh.snap.Store(next)
}

// foldGens builds the immutable generation a ⊎ b ⊎ the profiled posts
// ((CreatedAt, ID)-sorted). b may be
// emptyGen (the common extend-the-delta case). Existing posting lists
// are shared untouched where possible and copied where the fold extends
// them — never mutated — and the new posts' lists merge in sorted, so
// no query-time sort is ever needed.
func foldGens(a, b *shardGen, profiles []*PostProfile) *shardGen {
	g := &shardGen{
		byTime: mergeSorted(mergeSorted(a.byTime, b.byTime), postsOf(profiles)),
		byTag:  make(map[string][]*Post, len(a.byTag)+len(b.byTag)),
		byTerm: make(map[string][]*Post, len(a.byTerm)+len(b.byTerm)),
	}
	for k, v := range a.byTag {
		g.byTag[k] = v
	}
	for k, v := range b.byTag {
		g.byTag[k] = mergeSorted(g.byTag[k], v)
	}
	for k, v := range a.byTerm {
		g.byTerm[k] = v
	}
	for k, v := range b.byTerm {
		g.byTerm[k] = mergeSorted(g.byTerm[k], v)
	}

	// Per-key additions inherit the batch's (CreatedAt, ID) order, so
	// each touched posting list needs one sorted merge, not a re-sort.
	tagAdds := make(map[string][]*Post)
	termAdds := make(map[string][]*Post)
	for _, pp := range profiles {
		// pp.tags is deduplicated: a repeated hashtag must contribute
		// one posting, or the post would surface twice in tag queries.
		for _, tag := range pp.tags {
			tagAdds[tag] = append(tagAdds[tag], pp.post)
		}
		for term := range pp.terms {
			termAdds[term] = append(termAdds[term], pp.post)
		}
	}
	for tag, adds := range tagAdds {
		g.byTag[tag] = mergeSorted(g.byTag[tag], adds)
	}
	for term, adds := range termAdds {
		g.byTerm[term] = mergeSorted(g.byTerm[term], adds)
	}
	return g
}

// postingCursor is one sorted posting list with a monotone read
// position, answering membership tests for an ascending stream of
// candidate keys. seek gallops (exponential probe, then binary search)
// from the last position, so a scan whose candidates are dense in the
// list costs O(1) amortized per candidate and a sparse one costs
// O(log gap) — never a restart from the top.
type postingCursor struct {
	plist []*Post
	pos   int
}

// seek advances the cursor to the first posting ≥ p and reports whether
// it is exactly p (pointer identity suffices: a (CreatedAt, ID) key
// maps to one *Post object store-wide). Candidates must arrive in
// ascending (CreatedAt, ID) order.
func (c *postingCursor) seek(p *Post) bool {
	plist := c.plist
	n := len(plist)
	i := c.pos
	if i >= n {
		return false
	}
	if postLess(plist[i], p) {
		// Gallop: double the probe until it lands at or past p, then
		// binary-search the last octave.
		bound := 1
		for i+bound < n && postLess(plist[i+bound], p) {
			bound <<= 1
		}
		lo := i + bound>>1 + 1 // everything at or below i+bound/2 is < p
		hi := i + bound
		if hi > n {
			hi = n
		}
		i = lo + sort.Search(hi-lo, func(k int) bool { return !postLess(plist[lo+k], p) })
	}
	c.pos = i
	if i < n && plist[i] == p {
		c.pos = i + 1
		return true
	}
	return false
}

// exhausted reports that no further candidate can match.
func (c *postingCursor) exhausted() bool { return c.pos >= len(c.plist) }

// termResidual proves that candidates carry every must term by seeking
// the terms' sorted posting lists instead of consulting per-post token
// maps. A post lives in exactly one generation and each generation's
// byTerm[t] holds exactly the posts carrying t, so p has t iff one of
// the two generations' lists contains p. Cursors advance monotonically
// with the candidate stream (matchIter yields ascending keys), making
// the whole residual scan cost O(postings visited), not
// O(candidates · terms) map lookups.
type termResidual struct {
	curs []postingCursor // two per term: base list, then delta list
}

func newTermResidual(sn *shardSnapshot, must []string) *termResidual {
	tr := &termResidual{curs: make([]postingCursor, 0, 2*len(must))}
	for _, m := range must {
		tr.curs = append(tr.curs,
			postingCursor{plist: sn.base.byTerm[m]},
			postingCursor{plist: sn.delta.byTerm[m]})
	}
	return tr
}

// hasAll reports whether p carries every must term.
func (tr *termResidual) hasAll(p *Post) bool {
	for i := 0; i < len(tr.curs); i += 2 {
		if !tr.curs[i].seek(p) && !tr.curs[i+1].seek(p) {
			return false
		}
	}
	return true
}

// timeBounds narrows a (CreatedAt, ID)-sorted posting list to the
// [since, until) query window by binary search, so a bounded query
// never scans postings outside its window — the window cost is
// O(log postings) instead of a full-list scan.
func timeBounds(plist []*Post, since, until time.Time) (lo, hi int) {
	lo, hi = 0, len(plist)
	if !since.IsZero() {
		lo = sort.Search(len(plist), func(i int) bool { return !plist[i].CreatedAt.Before(since) })
	}
	if !until.IsZero() {
		hi = sort.Search(len(plist), func(i int) bool { return !plist[i].CreatedAt.Before(until) })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// shardIter lazily yields one snapshot's query matches in (CreatedAt,
// ID) order, strictly after the seek cursor. It is the streaming half
// of the sharded search: the store pulls MaxResults+1 posts off the
// merged shard streams and stops, so producing a page costs
// O(page + seek) rather than O(matches). Sources sit on store.go's
// mergeSource/mergeHeap posting-list heap, with each source's plist
// pre-narrowed to the query window. The iterator reads only the
// immutable snapshot it was built from — no lock is held or needed
// during its lifetime.
type shardIter struct {
	single  mergeSource // fast path: zero or one source, no heap
	h       mergeHeap   // ≥2 sources: lazy k-way union
	useHeap bool
	keep    func(*Post) bool // residual filter; nil keeps everything
	last    *Post            // dedup guard across overlapping tag lists
	scanned int              // posting entries pulled, kept or not (cost attribution)
}

// next returns the iterator's next match, or nil when exhausted.
func (it *shardIter) next() *Post {
	for {
		var p *Post
		if it.useHeap {
			if len(it.h) == 0 {
				return nil
			}
			src := &it.h[0]
			p = src.plist[src.pos]
			if src.pos+1 < len(src.plist) {
				src.pos++
				heap.Fix(&it.h, 0)
			} else {
				heap.Pop(&it.h)
			}
		} else {
			if it.single.pos >= len(it.single.plist) {
				return nil
			}
			p = it.single.plist[it.single.pos]
			it.single.pos++
		}
		it.scanned++
		// A post carrying several queried tags appears in multiple
		// source lists; equal heads surface back to back in the merge,
		// so one-deep memory dedupes the union.
		if p == it.last {
			continue
		}
		it.last = p
		if it.keep != nil && !it.keep(p) {
			continue
		}
		return p
	}
}

// genLists appends the non-empty posting lists of one key from both
// generations. A post lives in exactly one generation, so the two lists
// are disjoint and each is sorted — ready for the k-way merge.
func (sn *shardSnapshot) genLists(lists [][]*Post, pick func(*shardGen) []*Post) [][]*Post {
	if p := pick(sn.base); len(p) > 0 {
		lists = append(lists, p)
	}
	if p := pick(sn.delta); len(p) > 0 {
		lists = append(lists, p)
	}
	return lists
}

// matchIter builds the snapshot's lazy match stream for a query. The
// candidate-set preference mirrors the pre-shard matcher — union of tag
// postings, else the rarest must-term's postings, else the time index —
// but every candidate list is narrowed to the query window AND the
// keyset cursor by binary search before any post is touched. Each key
// contributes up to two sorted sources (base and delta generation).
// cur == nil starts at the top of the window.
func (sn *shardSnapshot) matchIter(q *Query, tags, must []string, cur *Cursor) *shardIter {
	it := &shardIter{}

	var lists [][]*Post
	switch {
	case len(tags) > 0:
		for _, tag := range tags {
			tag := tag
			lists = sn.genLists(lists, func(g *shardGen) []*Post { return g.byTag[tag] })
		}
	case len(must) > 0:
		// Walk the rarest term's postings; the residual filter proves
		// the remaining terms, so cost tracks the rarest term, not the
		// corpus.
		shortest, shortestLen := -1, 0
		for i, m := range must {
			n := len(sn.base.byTerm[m]) + len(sn.delta.byTerm[m])
			if n == 0 {
				return it // a missing term matches nothing in this shard
			}
			if shortest < 0 || n < shortestLen {
				shortest, shortestLen = i, n
			}
		}
		m := must[shortest]
		lists = sn.genLists(lists, func(g *shardGen) []*Post { return g.byTerm[m] })
	default:
		lists = sn.genLists(lists, func(g *shardGen) []*Post { return g.byTime })
	}

	srcs := make([]mergeSource, 0, len(lists))
	for _, plist := range lists {
		lo, hi := timeBounds(plist, q.Since, q.Until)
		if cur != nil {
			// Keyset seek: resume strictly after the cursor key.
			if c := sort.Search(len(plist), func(i int) bool { return cur.Before(plist[i]) }); c > lo {
				lo = c
			}
		}
		if lo < hi {
			srcs = append(srcs, mergeSource{plist: plist[lo:hi]})
		}
	}
	switch len(srcs) {
	case 0: // zero-valued single source is already exhausted
	case 1:
		// One source needs no heap: the narrowed list is streamed
		// directly.
		it.single = srcs[0]
	default:
		it.h = mergeHeap(srcs)
		heap.Init(&it.h)
		it.useHeap = true
	}

	region := q.Region
	// The residual filter proves whatever the candidate lists do not:
	// with tag candidates every must term needs proof; with term
	// candidates only the non-walked terms do (a single-term query needs
	// none — its candidates come from that term's own postings). Passing
	// the walked term too is harmless: its candidates sit at the cursor,
	// so the extra seek is O(1).
	needTerms := len(must) > 0 && (len(tags) > 0 || len(must) > 1)
	if region != "" || needTerms {
		var tr *termResidual
		if needTerms {
			tr = newTermResidual(sn, must)
		}
		it.keep = func(p *Post) bool {
			if region != "" && p.Region != region {
				return false
			}
			return tr == nil || tr.hasAll(p)
		}
	}
	return it
}

// countMatches returns the snapshot's total query matches. TotalMatches
// is cursor-independent, so the count walks the full window — except
// where sorted postings make it O(log n) by bound subtraction: the
// unfiltered time index, and single-key tag or term queries without a
// residual filter (the per-shard per-tag counts are the posting-list
// lengths themselves, maintained sorted at insert). Everything else
// walks the narrowed candidate postings — never a materialized slice.
func (sn *shardSnapshot) countMatches(q *Query, tags, must []string) int {
	if q.Region == "" {
		switch {
		case len(tags) == 0 && len(must) == 0:
			return sn.countByBounds(q, func(g *shardGen) []*Post { return g.byTime })
		case len(tags) == 1 && len(must) == 0:
			return sn.countByBounds(q, func(g *shardGen) []*Post { return g.byTag[tags[0]] })
		case len(tags) == 0 && len(must) == 1:
			return sn.countByBounds(q, func(g *shardGen) []*Post { return g.byTerm[must[0]] })
		case len(tags) == 0 && len(must) > 1:
			return sn.countTermIntersection(q, must)
		case len(tags) == 2 && len(must) == 0:
			return sn.countTagUnion2(q, tags)
		}
	}
	it := sn.matchIter(q, tags, must, nil)
	n := 0
	for it.next() != nil {
		n++
	}
	return n
}

// countTermIntersection counts the posts carrying every must term by
// intersecting the terms' posting lists per generation — a post's
// postings live entirely in its own generation, so the shard total is
// the sum of two independent intersections. Cost is the shortest list's
// window times a galloping seek per other list, sublinear in the
// candidate count the residual-filter walk would have paid.
func (sn *shardSnapshot) countTermIntersection(q *Query, must []string) int {
	n := 0
	for _, g := range []*shardGen{sn.base, sn.delta} {
		n += intersectCount(g, q, must)
	}
	return n
}

// intersectCount intersects one generation's must-term posting lists,
// each pre-narrowed to the query window, pivoting on the shortest.
func intersectCount(g *shardGen, q *Query, must []string) int {
	lists := make([][]*Post, len(must))
	for i, m := range must {
		plist := g.byTerm[m]
		lo, hi := timeBounds(plist, q.Since, q.Until)
		if lo >= hi {
			return 0
		}
		lists[i] = plist[lo:hi]
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	pivot := lists[0]
	curs := make([]postingCursor, len(lists)-1)
	for i, plist := range lists[1:] {
		curs[i] = postingCursor{plist: plist}
	}
	n := 0
outer:
	for _, p := range pivot {
		for i := range curs {
			if !curs[i].seek(p) {
				if curs[i].exhausted() {
					// Nothing later in the pivot can match either.
					break outer
				}
				continue outer
			}
		}
		n++
	}
	return n
}

// countTagUnion2 counts a two-tag union by inclusion–exclusion per
// generation: |A ∪ B| = |A| + |B| − |A ∩ B|, with |A| and |B| read off
// the window bounds and the intersection walked with a galloping cursor
// over the longer list. Sublinear in the union size whenever the tags
// barely overlap — the common case the heap-merge walk paid full price
// for.
func (sn *shardSnapshot) countTagUnion2(q *Query, tags []string) int {
	n := 0
	for _, g := range []*shardGen{sn.base, sn.delta} {
		a, b := g.byTag[tags[0]], g.byTag[tags[1]]
		alo, ahi := timeBounds(a, q.Since, q.Until)
		blo, bhi := timeBounds(b, q.Since, q.Until)
		n += (ahi - alo) + (bhi - blo)
		aw, bw := a[alo:ahi], b[blo:bhi]
		if len(aw) > len(bw) {
			aw, bw = bw, aw
		}
		cur := postingCursor{plist: bw}
		for _, p := range aw {
			if cur.seek(p) {
				n--
			} else if cur.exhausted() {
				break
			}
		}
	}
	return n
}

// countByBounds subtracts window bounds on one key's posting lists in
// both generations. Posting lists hold each post once per key (repeated
// hashtags dedupe at insert), so the subtraction is exact.
func (sn *shardSnapshot) countByBounds(q *Query, pick func(*shardGen) []*Post) int {
	n := 0
	for _, g := range []*shardGen{sn.base, sn.delta} {
		lo, hi := timeBounds(pick(g), q.Since, q.Until)
		n += hi - lo
	}
	return n
}
