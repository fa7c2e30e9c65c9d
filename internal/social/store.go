package social

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/nlp"
	"github.com/psp-framework/psp/internal/obs"
)

// Query selects posts from a store. All filters combine conjunctively;
// zero-valued filters are inactive.
type Query struct {
	// AnyTags matches posts carrying at least one of these hashtags
	// (normalized, no '#'). Empty means "any post".
	AnyTags []string
	// MustTerms are words or hashtags that must ALL appear in the post
	// text (the paper's target-application filter, e.g. "excavator").
	MustTerms []string
	// Region filters by origin region; empty means all regions.
	Region Region
	// Since/Until bound CreatedAt: Since ≤ t < Until. Zero values are
	// open ends.
	Since, Until time.Time
	// MaxResults caps the page size; 0 means the server default.
	MaxResults int
	// PageToken resumes a paginated listing; empty starts at the top.
	PageToken string
	// SkipTotal declares that the caller does not need
	// Page.TotalMatches, letting filtered pages skip the count walk and
	// stay fully O(page + seek). With it set, TotalMatches is
	// unspecified (implementations may leave it zero or still fill it).
	// Like the pagination fields it is a per-call cost hint, not a
	// filter: it never changes which posts match.
	SkipTotal bool
}

// normalizedTags returns the query's tags normalized for index lookup.
func (q Query) normalizedTags() []string {
	out := make([]string, 0, len(q.AnyTags))
	for _, t := range q.AnyTags {
		t = nlp.Normalize(strings.TrimPrefix(strings.TrimSpace(t), "#"))
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}

// normalizedMustTerms returns the query's must-terms normalized for
// index lookup.
func (q Query) normalizedMustTerms() []string {
	out := make([]string, 0, len(q.MustTerms))
	for _, t := range q.MustTerms {
		t = nlp.Normalize(strings.TrimPrefix(strings.TrimSpace(t), "#"))
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}

// Canonical returns the query with tags and must-terms normalized and
// sorted and pagination fields cleared — two queries with equal
// canonical forms select the same posts. The canonical form is the cache
// key of the workflow result cache. SkipTotal, a per-call cost hint, is
// cleared like the pagination fields.
func (q Query) Canonical() Query {
	c := Query{
		AnyTags:   q.normalizedTags(),
		MustTerms: q.normalizedMustTerms(),
		Region:    q.Region,
		Since:     q.Since,
		Until:     q.Until,
	}
	sort.Strings(c.AnyTags)
	sort.Strings(c.MustTerms)
	return c
}

// PostProfile is a post with the keys the store indexes it under — its
// distinct normalized hashtags and its term set — precomputed, so
// matching many queries against it (the monitor's cache and dirty-set
// passes) tokenizes it once. Add delivers the profiles it indexed on
// the changefeed (see Watch). A profile is immutable.
type PostProfile struct {
	post  *Post
	tags  []string // distinct, in first-occurrence order
	terms map[string]bool
}

// ProfilePost tokenizes a post once for repeated query matching.
func ProfilePost(p *Post) *PostProfile {
	pp := profile(p)
	return &pp
}

// ProfilePosts tokenizes a batch once for repeated query matching.
func ProfilePosts(posts []*Post) []*PostProfile {
	out := make([]*PostProfile, len(posts))
	for i, p := range posts {
		out[i] = ProfilePost(p)
	}
	return out
}

// Post returns the profiled post.
func (pp *PostProfile) Post() *Post { return pp.post }

// MatchesPost reports whether the post satisfies every filter of the
// query — the exact predicate Search applies, evaluated against a single
// post without touching a store. The monitoring subsystem uses it to
// decide which cached query results a newly ingested post belongs to.
func (q Query) MatchesPost(p *Post) bool {
	return q.Matcher().Matches(ProfilePost(p))
}

// QueryMatcher is a query compiled for repeated profile matching: tags
// and must-terms are normalized once, so the (query × post) matching
// loops of the monitoring subsystem do no per-call normalization.
type QueryMatcher struct {
	region       Region
	since, until time.Time
	tags, must   []string
}

// Matcher compiles the query's filters.
func (q Query) Matcher() QueryMatcher {
	return QueryMatcher{
		region: q.Region,
		since:  q.Since,
		until:  q.Until,
		tags:   q.normalizedTags(),
		must:   q.normalizedMustTerms(),
	}
}

// Matches applies the compiled predicate to a profiled post.
func (m QueryMatcher) Matches(pp *PostProfile) bool {
	p := pp.post
	if m.region != "" && p.Region != m.region {
		return false
	}
	if !m.since.IsZero() && p.CreatedAt.Before(m.since) {
		return false
	}
	if !m.until.IsZero() && !p.CreatedAt.Before(m.until) {
		return false
	}
	if len(m.tags) > 0 && !slices.ContainsFunc(pp.tags, func(t string) bool { return slices.Contains(m.tags, t) }) {
		return false
	}
	for _, t := range m.must {
		if !pp.terms[t] {
			return false
		}
	}
	return true
}

// Page is one page of search results.
type Page struct {
	// Posts are the matching posts in (CreatedAt, ID) order.
	Posts []*Post
	// NextToken resumes the listing; empty when the listing is complete.
	NextToken string
	// TotalMatches is the total number of posts matching the query
	// across all pages. Unspecified when the query set SkipTotal. On a
	// Degraded federated page it sums the healthy backends only.
	TotalMatches int
	// Degraded marks a partial federated page: some backends failed or
	// were skipped and their posts are missing (see MultiOptions.Partial;
	// always false on single-backend pages).
	Degraded bool
	// Backends carries per-backend health annotations on Degraded
	// federated pages; nil on healthy (and single-backend) pages, so the
	// hot path never pays for annotations it does not need.
	Backends []BackendStatus
}

// Searcher is the capability the PSP framework needs from a social
// platform: paginated keyword search. Both the in-process Store and the
// HTTP Client implement it.
//
// Implementations must be safe for concurrent use: the framework's
// social workflow fans queries out across a worker pool, and federated
// search (Multi) drains all backends in parallel goroutines.
type Searcher interface {
	Search(ctx context.Context, q Query) (*Page, error)
}

// idStripes is the stripe count of the global ID → post registry.
// Duplicate detection, Post and Len take one hash-keyed stripe lock
// instead of a store-global mutex, so the Add path holds no
// store-global lock at all.
const idStripes = 64

// idStripe is one lock stripe of the ID registry.
type idStripe struct {
	mu    sync.RWMutex
	posts map[string]*Post
}

// idStripeOf hashes a post ID to its registry stripe (FNV-1a).
func idStripeOf(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % idStripes)
}

// minPrunableTime and maxPrunableTime bound the timestamps whose
// bucket arithmetic is exact in int64 nanoseconds (one bucket of
// margin for Until's exclusive-bound adjustment).
var (
	minPrunableTime = time.Unix(0, math.MinInt64+shardBucketNanos)
	maxPrunableTime = time.Unix(0, math.MaxInt64-shardBucketNanos)
)

// Store is an in-memory post store with hashtag, term and time indices,
// striped across shards keyed by CreatedAt time bucket (see shard.go
// for the stripe layout). It is safe for concurrent use. Reads are
// lock-free: each shard publishes an immutable snapshot of its indices
// behind an atomic pointer, Search loads one snapshot per stripe and
// streams it, so an in-flight page never delays a writer and a
// committing writer never stalls a reader. Writers contend only with
// writers of the same stripe (the shard mutex is writer–writer only).
//
// Lock order (nested acquisitions always follow it): shard writer locks
// in ascending stripe index, then a subscriber's own lock. The
// subscriber-registry mutex submu and the ID-registry stripe locks
// nest inside nothing. Changefeed publication takes no store-level lock
// at all — it atomically loads the subscriber set and enqueues under
// each subscriber's own lock.
type Store struct {
	shards []*shard

	// ids is the global ID → post registry (duplicate detection, Post,
	// Len), striped by ID hash. Index maintenance happens in the shard
	// snapshots.
	ids [idStripes]idStripe

	// subs is the changefeed subscriber registry behind an atomic
	// pointer to an immutable set: publication is a lock-free load plus
	// per-subscriber enqueue, so commits on disjoint stripe sets never
	// serialize store-wide. submu serializes only registry mutations
	// (Watch registration, delivery teardown), which copy-on-write a
	// replacement set.
	submu sync.Mutex
	subs  atomic.Pointer[subscriberSet]

	// dur is the store's write-ahead persistence (OpenStoreDir); nil
	// for a purely in-memory store. When set, Add appends each batch to
	// its stripes' logs — group-committed, fsync'd, before any index
	// commit — so an acknowledged Add survives a crash (see durable.go).
	dur *storeDurability

	// met is the optional recording surface (SetMetrics). Hot paths pay
	// one atomic pointer load and a nil check when detached; every
	// recorder behind it is itself lock-free (see internal/obs).
	met atomic.Pointer[StoreMetrics]

	// trc is the optional span tracer (SetTracer), same contract as
	// met: one atomic load per operation, nil means fully off.
	trc atomic.Pointer[obs.Tracer]

	// lastIngest names the most recent recorded ingest span so the
	// monitor can link its delta run into that trace (LastIngestTrace).
	lastIngest atomic.Pointer[ingestRef]

	// degraded, when non-nil, marks the store read-only after a
	// persistent WAL failure (see ErrDegraded): ingest is refused with
	// the typed error, reads keep serving. Add pays one atomic load.
	degraded atomic.Pointer[DegradedError]
}

var _ Searcher = (*Store)(nil)

// DefaultShards is the stripe count NewStore uses. Search results are
// independent of the shard count; it only sets how many writers can
// make progress concurrently.
const DefaultShards = 8

// NewStore returns an empty store striped across DefaultShards shards.
func NewStore() *Store { return NewStoreShards(0) }

// NewStoreShards returns an empty store striped across n shards keyed
// by CreatedAt time bucket; n ≤ 0 selects DefaultShards. Any n yields
// byte-identical search results — the shard count trades write
// concurrency against per-query fan-out width.
func NewStoreShards(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Store{
		shards: make([]*shard, n),
	}
	s.subs.Store(&subscriberSet{})
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	for i := range s.ids {
		s.ids[i].posts = make(map[string]*Post)
	}
	return s
}

// Shards returns the store's stripe count.
func (s *Store) Shards() int { return len(s.shards) }

// shardFor maps a timestamp to its stripe index.
func (s *Store) shardFor(t time.Time) int {
	i := int(bucketOf(t) % int64(len(s.shards)))
	if i < 0 {
		i += len(s.shards)
	}
	return i
}

// stripesFor maps a query window to the stripe indices that can hold
// matches: the window [since, until) covers a contiguous run of time
// buckets, every bucket lives on stripe (bucket mod N), so a window
// narrower than N buckets reaches fewer than N stripes and the rest are
// skipped without loading a snapshot. nil means "every stripe" (an
// unbounded or wide window); an empty non-nil slice means the window is
// empty.
func (s *Store) stripesFor(since, until time.Time) []int {
	n := int64(len(s.shards))
	if since.IsZero() || until.IsZero() {
		return nil
	}
	// Bucket math runs on UnixNano, which only represents ~1678–2262;
	// a far-past Since or far-future Until (the usual open-end
	// sentinels) would compute a garbage bucket run, so such windows
	// fall back to the unpruned fan-out instead.
	if since.Before(minPrunableTime) || until.After(maxPrunableTime) {
		return nil
	}
	if !since.Before(until) {
		return []int{}
	}
	first := bucketOf(since)
	last := bucketOf(until.Add(-time.Nanosecond)) // until is exclusive
	if last-first+1 >= n {
		return nil
	}
	stripes := make([]int, 0, last-first+1)
	for b := first; b <= last; b++ {
		i := int(b % n)
		if i < 0 {
			i += int(n)
		}
		stripes = append(stripes, i)
	}
	// Consecutive buckets hit distinct stripes until wrapping, so the
	// run contains no duplicates by construction (its length is < n).
	return stripes
}

// postLess orders posts by (CreatedAt, ID).
func postLess(a, b *Post) bool {
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.Before(b.CreatedAt)
	}
	return a.ID < b.ID
}

// Add inserts posts as one batch: validation happens per post, index
// maintenance once per batch (single sorted merge per touched index).
// Duplicate IDs and invalid posts are rejected; on error the store is
// left unchanged for the offending post but earlier posts of the batch
// stay inserted. On a durable store (OpenStoreDir) a write-ahead-log
// failure likewise keeps exactly the posts whose log records were
// already fsync'd — the disk truth a recovery would replay — and rolls
// back the rest, reporting the partial insert in the error.
func (s *Store) Add(posts ...*Post) error {
	_, err := s.AddCountContext(context.Background(), posts...)
	return err
}

// AddCountContext is Add under a caller context, reporting how many
// posts of this batch were inserted — the count is exact under
// concurrent writers, unlike diffing Len around the call. The context
// does not cancel the insert — an acknowledged batch is all-or-nothing
// per the WAL contract — it carries the caller's trace: when a tracer
// is attached (SetTracer), the ingest records a "store.add" span (with
// a "wal.append" child on durable stores) linked under whatever span
// the context holds, so an HTTP ingest and the delta run it triggers
// share one trace.
//
// Visibility: IDs commit to the global registry (duplicate detection,
// Post, Len) before the shard snapshots commit, so under a concurrent
// writer a post can briefly be visible to Post/Len — and reject a
// duplicate — while Search does not return it yet. Searchability of an
// accepted post is guaranteed once its Add (or, for a rejected
// duplicate, the winning Add of a post with the same timestamp)
// returns. Likewise, a batch spanning several stripes becomes
// searchable stripe by stripe in ascending order: a concurrent reader
// may observe a prefix of the batch's stripes, exactly as if the batch
// had been split into per-stripe Adds — keyset listings stay skip- and
// duplicate-free regardless. The changefeed is stricter: it always
// delivers the whole batch as one unit (see Watch).
func (s *Store) AddCountContext(ctx context.Context, posts ...*Post) (int, error) {
	ctx, span := s.trc.Load().Start(ctx, "store.add")
	span.SetInt("posts", int64(len(posts)))
	if de := s.degraded.Load(); de != nil {
		// Read-only degraded mode: refuse before registering anything, so
		// a rejected batch leaves no trace in the ID registry.
		span.Fail(de)
		span.End()
		return 0, de
	}
	var err error
	batch := make([]*Post, 0, len(posts))
	for _, p := range posts {
		if p == nil {
			// Guard remote ingest: a JSON array element of null decodes
			// to a nil *Post.
			err = fmt.Errorf("social: nil post")
			break
		}
		if err = p.Validate(); err != nil {
			break
		}
		st := &s.ids[idStripeOf(p.ID)]
		st.mu.Lock()
		if _, dup := st.posts[p.ID]; dup {
			st.mu.Unlock()
			err = fmt.Errorf("social: duplicate post ID %s", p.ID)
			break
		}
		st.posts[p.ID] = p
		st.mu.Unlock()
		batch = append(batch, p)
	}
	if len(batch) > 0 {
		// Before insertBatch publishes the batch: a changefeed consumer
		// that reads LastIngestTrace on receipt must see this ingest.
		// The deferred call runs after span.End below.
		ended := s.noteIngest(span)
		defer ended()
	}
	inserted, walErr := s.insertBatch(ctx, batch)
	if walErr != nil {
		err = walErr
	}
	if m := s.met.Load(); m != nil {
		m.AddedPosts.Add(uint64(inserted))
	}
	span.SetInt("inserted", int64(inserted))
	span.Fail(err)
	span.End()
	return inserted, err
}

// stripePart is one stripe's share of a validated batch: the profiles
// of its posts in (CreatedAt, ID) order, plus — on a durable store —
// the stripe-WAL sequences the sub-batch's records were logged under
// (several when the sub-batch exceeds the per-record chunk size).
type stripePart struct {
	stripe   int
	profiles []*PostProfile
	seqs     []uint64
}

// partitionBatch profiles a (CreatedAt, ID)-sorted batch outside any
// lock — tokenizing is the expensive part of ingest and needs no store
// state — and splits it into its time-bucket stripes. It returns the
// parts in ascending stripe order (the store's lock order) and every
// profile in batch order, the unit the changefeed delivers.
func (s *Store) partitionBatch(batch []*Post) ([]*stripePart, []*PostProfile) {
	all := make([]PostProfile, len(batch))
	feed := make([]*PostProfile, len(batch))
	byStripe := make([]*stripePart, len(s.shards))
	for k, p := range batch {
		all[k] = profile(p)
		feed[k] = &all[k]
		i := s.shardFor(p.CreatedAt)
		if byStripe[i] == nil {
			byStripe[i] = &stripePart{stripe: i}
		}
		byStripe[i].profiles = append(byStripe[i].profiles, feed[k])
	}
	parts := make([]*stripePart, 0, 1)
	for _, part := range byStripe {
		if part != nil {
			parts = append(parts, part)
		}
	}
	return parts, feed
}

// postsOf returns the posts of a profile slice, in order.
func postsOf(profiles []*PostProfile) []*Post {
	out := make([]*Post, len(profiles))
	for i, pp := range profiles {
		out[i] = pp.post
	}
	return out
}

// insertBatch makes a validated, registered batch durable (when the
// store has a write-ahead log) and commits it to the in-memory indices,
// returning how many of the batch's posts were inserted. The in-memory
// commit itself cannot fail; on a WAL failure the disk truth wins —
// sub-batches whose records were already fsync'd are committed (a
// recovery would resurface them regardless), the unlogged remainder is
// unregistered, and the error reports the partial insert.
func (s *Store) insertBatch(ctx context.Context, batch []*Post) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	sort.Slice(batch, func(i, j int) bool { return postLess(batch[i], batch[j]) })
	parts, feed := s.partitionBatch(batch)
	if s.dur == nil {
		s.commitParts(parts, feed)
		return len(batch), nil
	}
	// Write-ahead: the batch hits its stripes' logs (group-committed
	// and fsync'd) before any index sees it, off the commit critical
	// section below — a slow fsync never extends a lock hold. The span
	// measures the durability wait end to end; logParts fills in the
	// record/group-size attribution.
	_, wspan := s.trc.Load().Start(ctx, "wal.append")
	wspan.SetInt("stripes", int64(len(parts)))
	logged, err := s.dur.logParts(parts, wspan)
	wspan.Fail(err)
	wspan.End()
	if err == nil {
		s.commitParts(parts, feed)
		s.dur.markApplied(parts)
		return len(batch), nil
	}
	committed := make([]*PostProfile, 0, len(batch))
	for _, part := range logged {
		committed = append(committed, part.profiles...)
	}
	sort.Slice(committed, func(i, j int) bool { return postLess(committed[i].post, committed[j].post) })
	if len(committed) > 0 {
		s.commitParts(logged, committed)
		s.dur.markApplied(logged)
	}
	onDisk := make(map[*Post]bool, len(committed))
	for _, pp := range committed {
		onDisk[pp.post] = true
	}
	rollback := make([]*Post, 0, len(batch)-len(committed))
	for _, p := range batch {
		if !onDisk[p] {
			rollback = append(rollback, p)
		}
	}
	s.unregister(rollback)
	// A write or fsync failure is the log's sticky error state — every
	// later append on that stripe would fail too — so the store flips to
	// read-only degraded mode. A closed log (racing Close) and an encode
	// failure (a per-batch problem) are not disk damage and do not.
	if !errors.Is(err, durable.ErrClosed) && !errors.Is(err, errEncode) {
		s.markDegraded(err)
	}
	return len(committed), fmt.Errorf("social: wal append (%d of %d posts inserted): %w", len(committed), len(batch), err)
}

// commitParts distributes a partitioned batch across its time-bucket
// shards and publishes its profiles (feed, in (CreatedAt, ID) order) to
// the changefeed. The batch commits one
// snapshot swap per touched shard under the shards' writer locks
// (acquired in ascending stripe order) and publishes inside that
// window, so batches whose stripe sets overlap reach every subscriber
// in commit order, while readers are never involved in the critical
// section at all. Commits on disjoint stripes publish concurrently (see
// Watch for the resulting ordering contract).
func (s *Store) commitParts(parts []*stripePart, feed []*PostProfile) {
	for _, part := range parts {
		s.shards[part.stripe].mu.Lock()
	}
	for _, part := range parts {
		s.shards[part.stripe].commit(part.profiles)
	}
	s.publish(feed)
	for i := len(parts) - 1; i >= 0; i-- {
		s.shards[parts[i].stripe].mu.Unlock()
	}
}

// unregister rolls a batch's IDs back out of the global registry (the
// WAL-failure path: the batch never reached an index).
func (s *Store) unregister(batch []*Post) {
	for _, p := range batch {
		st := &s.ids[idStripeOf(p.ID)]
		st.mu.Lock()
		delete(st.posts, p.ID)
		st.mu.Unlock()
	}
}

// mergeHeap orders posting-list heads by (CreatedAt, ID) for the lazy
// k-way merge of tag unions (shardIter). Each element is a posting list
// with a read position.
type mergeHeap []mergeSource

type mergeSource struct {
	plist []*Post
	pos   int
}

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return postLess(h[i].plist[h[i].pos], h[j].plist[h[j].pos])
}
func (h mergeHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)     { *h = append(*h, x.(mergeSource)) }
func (h *mergeHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }

// mergeSorted merges two (CreatedAt, ID)-sorted slices into one. Inputs
// are never mutated; when one side is empty the other is returned as
// is, which is safe because published posting lists are immutable.
func mergeSorted(a, b []*Post) []*Post {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]*Post, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if postLess(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Len returns the number of stored posts.
func (s *Store) Len() int {
	n := 0
	for i := range s.ids {
		s.ids[i].mu.RLock()
		n += len(s.ids[i].posts)
		s.ids[i].mu.RUnlock()
	}
	return n
}

// Post returns the post with the given ID, or nil.
func (s *Store) Post(id string) *Post {
	st := &s.ids[idStripeOf(id)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.posts[id]
}

// DefaultPageSize caps pages when the query does not specify MaxResults.
const DefaultPageSize = 100

// MaxPageSize is the hard page-size ceiling, mirroring public API
// limits. Callers draining full listings (the core workflow's platform
// queries) should request it explicitly to minimize page round trips.
const MaxPageSize = 500

// Search runs the query and returns one result page. Continuation uses
// keyset tokens — see EncodeCursor — so a listing drained page by page
// while writers Add posts concurrently never skips or repeats a post
// that was present when the drain started.
//
// Search is lock-free: it loads one immutable snapshot per stripe and
// never blocks a writer (or is blocked by one). Window→stripe pruning
// runs first — a Since/Until window narrower than one round of time
// buckets maps to the stripe set those buckets occupy, and only that
// set is visited. Pages stream: every visited snapshot seeks its sorted
// indices to the cursor by binary search and yields matches lazily, the
// per-shard streams k-way merge in (CreatedAt, ID) order, and the merge
// stops after MaxResults+1 posts — so producing a page costs
// O(page + seek), not O(matches). TotalMatches is counted index-side
// without materializing (O(log corpus) for unfiltered, single-tag and
// single-term windowed queries; a walk of the narrowed candidate
// postings otherwise) and skipped entirely when the query sets
// SkipTotal.
func (s *Store) Search(ctx context.Context, q Query) (*Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := s.trc.Load().Start(ctx, "store.search")
	var cur *Cursor
	if q.PageToken != "" {
		c, err := ParseCursor(q.PageToken)
		if err != nil {
			span.Fail(err)
			span.End()
			return nil, err
		}
		cur = &c
	}
	size := resolvePageSize(q.MaxResults)
	tags := q.normalizedTags()
	must := q.normalizedMustTerms()

	// Window→stripe pruning, then one coherent snapshot load per
	// surviving stripe. Each snapshot stays valid for the whole call no
	// matter how many commits land meanwhile.
	stripes := s.stripesFor(q.Since, q.Until)
	if stripes == nil {
		stripes = make([]int, len(s.shards))
		for i := range stripes {
			stripes[i] = i
		}
	}
	snaps := make([]*shardSnapshot, len(stripes))
	for k, i := range stripes {
		snaps[k] = s.shards[i].view()
	}
	if span != nil {
		// Per-query cost attribution: the stripe fan-out after pruning
		// and how much un-compacted delta the visited snapshots carry.
		span.SetInt("stripes", int64(len(stripes)))
		deltaPosts := 0
		for _, sn := range snaps {
			deltaPosts += len(sn.delta.byTime)
		}
		span.SetInt("delta_posts", int64(deltaPosts))
	}

	// Per-shard seek + count fan out across a bounded worker set; the
	// page merge below then pulls the pre-seeked streams serially. An
	// unfiltered time-window query does a few binary searches per
	// snapshot (count by bound subtraction) — there the goroutine
	// handoff would dwarf the work, so it runs inline.
	iters := make([]*shardIter, len(snaps))
	counts := make([]int, len(snaps))
	perSnap := func(k int) {
		iters[k] = snaps[k].matchIter(&q, tags, must, cur)
		if !q.SkipTotal {
			counts[k] = snaps[k].countMatches(&q, tags, must)
		}
	}
	// With SkipTotal the filtered case reduces to iterator construction
	// — a few binary searches — so it runs inline too.
	if q.SkipTotal || (len(tags) == 0 && len(must) == 0 && q.Region == "") {
		for k := range snaps {
			perSnap(k)
		}
	} else {
		forEachBounded(len(snaps), perSnap)
	}

	page := &Page{}
	for _, c := range counts {
		page.TotalMatches += c
	}
	posts := mergeShardStreams(iters, size+1)
	if len(posts) > size {
		posts = posts[:size]
		page.NextToken = EncodeCursor(CursorOf(posts[len(posts)-1]))
	}
	if len(posts) > 0 {
		page.Posts = posts
	}
	if span != nil {
		scanned := 0
		for _, it := range iters {
			scanned += it.scanned
		}
		span.SetInt("scanned", int64(scanned))
		span.SetInt("posts", int64(len(posts)))
		if !q.SkipTotal {
			span.SetInt("total", int64(page.TotalMatches))
		}
		span.End()
	}
	return page, nil
}

// forEachBounded runs fn for every index on a bounded worker set (the
// internal/core pool idiom): at most GOMAXPROCS calls in flight. With
// one item or no parallelism to exploit it stays inline, so
// single-stripe stores pay no goroutine overhead.
func forEachBounded(n int, fn func(i int)) {
	limit := runtime.GOMAXPROCS(0)
	if limit > n {
		limit = n
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, limit)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// streamHead is one shard stream's buffered front post.
type streamHead struct {
	p  *Post
	it *shardIter
}

// streamHeap orders live shard streams by their head post.
type streamHeap []streamHead

func (h streamHeap) Len() int           { return len(h) }
func (h streamHeap) Less(i, j int) bool { return postLess(h[i].p, h[j].p) }
func (h streamHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x any)        { *h = append(*h, x.(streamHead)) }
func (h *streamHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return
}

// mergeShardStreams k-way merges the per-shard match streams in
// (CreatedAt, ID) order, pulling at most limit posts. Shards partition
// the corpus, so no cross-stream dedup is needed, and a single live
// stream drains directly without the heap.
func mergeShardStreams(iters []*shardIter, limit int) []*Post {
	if limit <= 0 {
		return nil
	}
	h := make(streamHeap, 0, len(iters))
	for _, it := range iters {
		if p := it.next(); p != nil {
			h = append(h, streamHead{p: p, it: it})
		}
	}
	if len(h) == 0 {
		return nil
	}
	if len(h) == 1 {
		out := make([]*Post, 0, limit)
		out = append(out, h[0].p)
		for len(out) < limit {
			p := h[0].it.next()
			if p == nil {
				break
			}
			out = append(out, p)
		}
		return out
	}
	heap.Init(&h)
	out := make([]*Post, 0, limit)
	for len(out) < limit && len(h) > 0 {
		out = append(out, h[0].p)
		if p := h[0].it.next(); p != nil {
			h[0].p = p
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// maxSearchPages bounds SearchAll drains (2000 pages × the 500-post
// ceiling ≈ one million posts); keyset tokens advance strictly, so the
// cap only trips on a backend that emits non-advancing tokens.
const maxSearchPages = 2000

// SearchAll drains every page of a query through any Searcher,
// accumulating all matching posts. It guards against runaway listings
// with a hard cap of maxSearchPages pages. The drain never reads
// TotalMatches, so it sets SkipTotal and filtered drains skip the
// per-page count walk.
func SearchAll(ctx context.Context, s Searcher, q Query) ([]*Post, error) {
	var out []*Post
	q.PageToken = ""
	q.SkipTotal = true
	for pages := 0; ; pages++ {
		if pages >= maxSearchPages {
			return nil, fmt.Errorf("social: pagination exceeded %d pages", maxSearchPages)
		}
		page, err := s.Search(ctx, q)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Posts...)
		if page.NextToken == "" {
			return out, nil
		}
		q.PageToken = page.NextToken
	}
}
