package social

import (
	"context"
	"sync"
)

// subscriber is one live changefeed consumer. Inserted batches queue
// under the subscriber's own lock inside the store's insert critical
// section, and the consumer takes them with Feed.Next, so a slow
// consumer never blocks writers.
type subscriber struct {
	mu      sync.Mutex
	pending []*PostProfile
	ready   chan struct{} // capacity 1: coalescing wake-up signal
}

// subscriberSet is the immutable subscriber registry: publication loads
// it atomically and never mutates it; Watch and the unsubscribe that
// follows its ctx replace it copy-on-write under the store's submu. seq
// is the ID the next registration takes.
type subscriberSet struct {
	subs map[uint64]*subscriber
	seq  uint64
}

// withSub returns a copy of the set with one subscriber added, plus the
// ID it was registered under.
func (set *subscriberSet) withSub(sub *subscriber) (*subscriberSet, uint64) {
	next := &subscriberSet{subs: make(map[uint64]*subscriber, len(set.subs)+1), seq: set.seq + 1}
	for id, s := range set.subs {
		next.subs[id] = s
	}
	next.subs[set.seq] = sub
	return next, set.seq
}

// withoutSub returns a copy of the set with one subscriber removed.
func (set *subscriberSet) withoutSub(id uint64) *subscriberSet {
	next := &subscriberSet{subs: make(map[uint64]*subscriber, len(set.subs)), seq: set.seq}
	for sid, s := range set.subs {
		if sid != id {
			next.subs[sid] = s
		}
	}
	return next
}

func (sub *subscriber) enqueue(batch []*PostProfile) {
	sub.mu.Lock()
	sub.pending = append(sub.pending, batch...)
	sub.mu.Unlock()
	select {
	case sub.ready <- struct{}{}:
	default:
	}
}

// publish hands an inserted batch's profiles (already (CreatedAt,
// ID)-sorted) to every subscriber. The caller still holds the batch's shard writer
// locks, so its snapshot swaps are already visible to lock-free
// readers: the batch is published post-commit.
//
// The subscriber set is read with one atomic load, no store-level lock,
// and each subscriber receives the whole batch in one enqueue: a
// subscriber gets a batch entirely or not at all, never twice. A batch
// whose Add began after Watch returned loads a set that holds the new
// subscriber. Between batches the only ordering is the shard locks
// themselves — batches with overlapping stripe sets queue in commit
// order, batches on disjoint stripe sets may interleave differently per
// subscriber (they carry disjoint time buckets, so any (CreatedAt,
// ID)-merging consumer is unaffected).
func (s *Store) publish(batch []*PostProfile) {
	for _, sub := range s.subs.Load().subs {
		sub.enqueue(batch)
	}
	if m := s.met.Load(); m != nil {
		m.FeedBatches.Inc()
		m.FeedPosts.Add(uint64(len(batch)))
	}
}

// ChangefeedBacklog sums the posts published to the live subscribers
// that their Next has not yet taken — the publish-to-consume lag
// signal. A batch published to N subscribers counts once per
// subscriber that has not taken it.
func (s *Store) ChangefeedBacklog() int {
	total := 0
	for _, sub := range s.subs.Load().subs {
		sub.mu.Lock()
		total += len(sub.pending)
		sub.mu.Unlock()
	}
	return total
}

// Feed is one changefeed subscription (see Store.Watch). Its methods
// are for the one goroutine that consumes it.
type Feed struct {
	s   *Store
	ctx context.Context
	sub *subscriber

	// afterFloors, when set, runs in Next between the floor read and
	// the take: the test hook that pins their order.
	afterFloors func()
}

// Watch subscribes to the store's changefeed: every batch of posts
// whose Add begins after Watch returns is queued on the feed exactly
// once, with posts inside a batch in (CreatedAt, ID) order. Each post
// arrives as the profile Add indexed it under, which matches every
// query exactly as ProfilePost of the post does; subscribers share it,
// read-only. A batch that was committing while Watch registered is
// queued whole or not at all. Batches whose stripe sets overlap queue
// in commit order; concurrent batches on disjoint stripe sets carry
// disjoint time buckets and may interleave differently per subscriber.
// The feed is live-only: to catch up on posts accepted before the
// subscription, read them from the store (on a durable store,
// PostsSince of a DurableCursor taken before Watch).
//
// The feed unsubscribes when ctx ends; batches published afterwards no
// longer queue on it. Pending posts queue in memory without bound while
// the consumer lags; consume promptly or cancel the subscription.
func (s *Store) Watch(ctx context.Context) *Feed {
	sub := &subscriber{ready: make(chan struct{}, 1)}
	s.submu.Lock()
	next, id := s.subs.Load().withSub(sub)
	s.subs.Store(next)
	s.submu.Unlock()
	context.AfterFunc(ctx, func() {
		s.submu.Lock()
		s.subs.Store(s.subs.Load().withoutSub(id))
		s.submu.Unlock()
	})
	return &Feed{s: s, ctx: ctx, sub: sub}
}

// Ready returns the feed's wake-up signal, a channel of capacity 1 that
// receives after posts are queued. Signals coalesce, so one receive may
// stand for several batches, and a receive may find them already taken
// by an earlier Next.
func (f *Feed) Ready() <-chan struct{} { return f.sub.ready }

// Next takes every post pending on the feed, in queue order (nil when
// none is), and returns with them a DurableCursor the consumer can
// persist once it has processed them. It reads the WAL floors before
// taking: Add queues a batch before the floors move past it, so every
// post the cursor covers that was queued on this feed has been returned
// by this call or an earlier one. The cursor is nil on a store that is
// not durable, and once the subscription's context has ended (the
// floors can then cover batches that never queued).
func (f *Feed) Next() ([]*PostProfile, DurableCursor) {
	var c DurableCursor
	if f.s.dur != nil {
		c = f.s.dur.floors()
	}
	if f.afterFloors != nil {
		f.afterFloors()
	}
	f.sub.mu.Lock()
	batch := f.sub.pending
	f.sub.pending = nil
	f.sub.mu.Unlock()
	// The unsubscribe runs only after ctx ends, so a live ctx here means
	// the subscriber was still registered when the floors were read.
	if f.ctx.Err() != nil {
		c = nil
	}
	return batch, c
}
