package social

import (
	"context"
	"sync"
)

// subscriber is one live changefeed consumer. Inserted batches are
// queued under the subscriber's own lock inside the store's insert
// critical section; a dedicated goroutine drains the queue into the
// delivery channel so slow consumers never block writers.
type subscriber struct {
	mu      sync.Mutex
	pending []*PostProfile
	// inflight is set while the delivery goroutine holds a batch it
	// took from pending and waits for room in out to hand it over.
	inflight bool
	notify   chan struct{}       // capacity 1: at-least-once wake-up signal
	out      chan []*PostProfile // the channel Watch returned
}

// subscriberSet is the immutable subscriber registry: publication loads
// it atomically and never mutates it; Watch and delivery teardown
// replace it copy-on-write under the store's submu. seq is the ID the
// next registration takes.
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
	case sub.notify <- struct{}{}:
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
// themselves — batches with overlapping stripe sets deliver in commit
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

// ChangefeedBacklog sums the posts queued for delivery across all live
// subscribers — the publish-to-consume lag signal. A batch delivered
// to N subscribers counts once per subscriber still holding it.
func (s *Store) ChangefeedBacklog() int {
	total := 0
	for _, sub := range s.subs.Load().subs {
		sub.mu.Lock()
		total += len(sub.pending)
		sub.mu.Unlock()
	}
	return total
}

// watchBuffer is a changefeed channel's capacity in batches.
const watchBuffer = 16

// Watch subscribes to the store's changefeed: every batch of posts
// whose Add begins after Watch returns is delivered exactly once, with
// posts inside a batch in (CreatedAt, ID) order. Each post arrives as
// the profile Add indexed it under, which matches every query exactly
// as ProfilePost of the post does; subscribers share it, read-only. A batch that was
// committing while Watch registered is delivered whole or not at all.
// Batches whose stripe sets overlap are delivered in commit order;
// concurrent batches on disjoint stripe sets carry disjoint time
// buckets and may interleave differently per subscriber. The feed is
// live-only: to catch up on posts accepted before the subscription,
// read them from the store (on a durable store, PostsSince of a
// DurableCursor taken before Watch).
//
// The returned channel is closed when ctx is cancelled. Pending batches
// queue in memory without bound while the consumer lags; consume
// promptly or cancel the subscription.
func (s *Store) Watch(ctx context.Context) <-chan []*PostProfile {
	out := make(chan []*PostProfile, watchBuffer)
	sub := &subscriber{notify: make(chan struct{}, 1), out: out}
	s.submu.Lock()
	next, id := s.subs.Load().withSub(sub)
	s.subs.Store(next)
	s.submu.Unlock()
	go s.deliver(ctx, id, sub)
	return out
}

// deliver drains one subscriber's queue into its channel until the
// subscription context ends. While the channel has room, a batch moves
// from pending into it under the subscriber lock, so FeedCursor always
// finds it in one place or the other; only a full channel makes deliver
// hold a batch outside both (inflight) while it waits for room.
func (s *Store) deliver(ctx context.Context, id uint64, sub *subscriber) {
	defer func() {
		s.submu.Lock()
		s.subs.Store(s.subs.Load().withoutSub(id))
		s.submu.Unlock()
		close(sub.out)
	}()
	for {
		select {
		case <-ctx.Done():
			return
		case <-sub.notify:
		}
		for {
			sub.mu.Lock()
			batch := sub.pending
			if len(batch) == 0 {
				sub.mu.Unlock()
				break
			}
			sub.pending = nil
			select {
			case sub.out <- batch:
				sub.mu.Unlock()
				continue
			default:
			}
			sub.inflight = true
			sub.mu.Unlock()
			select {
			case sub.out <- batch:
			case <-ctx.Done():
				return
			}
			sub.mu.Lock()
			sub.inflight = false
			sub.mu.Unlock()
		}
	}
}

// FeedCursor returns a DurableCursor covering only posts the consumer
// of feed (a channel Watch returned) has already received — the cursor
// a consumer that checkpoints what it has read can safely persist.
// Add publishes a batch before the WAL floors advance past it, so the
// store's current DurableCursor can cover batches still queued for
// delivery; FeedCursor reports ok=false while any batch is queued for
// feed (pending, being handed over, or buffered in the channel), and
// also when feed is no live subscription of s or s is not durable.
// Call it from the goroutine that reads feed, between receives.
func (s *Store) FeedCursor(feed <-chan []*PostProfile) (DurableCursor, bool) {
	if s.dur == nil {
		return nil, false
	}
	// Floors first: every batch they cover was enqueued before this
	// read, so if the queue is empty afterwards, each was received.
	c := s.dur.floors()
	for _, sub := range s.subs.Load().subs {
		if sub.out != feed {
			continue
		}
		sub.mu.Lock()
		queued := len(sub.pending) > 0 || sub.inflight
		sub.mu.Unlock()
		// Only the caller receives from feed, so a batch handed over
		// before the check above is still buffered now.
		if queued || len(feed) > 0 {
			return nil, false
		}
		return c, true
	}
	return nil, false
}
