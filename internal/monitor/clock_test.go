package monitor

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeStart is the instant every fakeClock starts at.
var fakeStart = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

// fakeClock is a clock that stands still until Advance moves it, so a
// test can assert the exact instant a timer was armed for and the
// exact stamp of a publication. After registers a timer due at now+d
// and records d; Advance fires the timers that fall due, in deadline
// order. A loop under test reads the clock for every arrival it takes,
// which is what took and waitArmed wait on.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []fakeTimer
	armed  []time.Duration // every After request, in order
	reads  int             // Now calls
	// changed is closed and replaced at every Now and After call, so a
	// waiter re-checks its condition.
	changed chan struct{}
}

type fakeTimer struct {
	at time.Time
	c  chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: fakeStart, changed: make(chan struct{})}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	c.signal()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.timers = append(c.timers, fakeTimer{at: c.now.Add(d), c: ch})
	c.armed = append(c.armed, d)
	c.signal()
	return ch
}

func (c *fakeClock) signal() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// Advance moves the clock d forward and fires every timer due by then,
// in deadline order.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	slices.SortStableFunc(c.timers, func(a, b fakeTimer) int { return a.at.Compare(b.at) })
	for len(c.timers) > 0 && !c.timers[0].at.After(c.now) {
		c.timers[0].c <- c.timers[0].at
		c.timers = c.timers[1:]
	}
}

// await blocks until cond, checked under the clock's lock after every
// clock call, holds. It fails the test after 30 s of real time.
func (c *fakeClock) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		c.mu.Lock()
		ok, changed := cond(), c.changed
		c.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitArmed waits until n timers were requested and returns every
// requested duration so far, in order.
func (c *fakeClock) waitArmed(t *testing.T, n int) []time.Duration {
	t.Helper()
	c.await(t, fmt.Sprintf("%d armed timers", n), func() bool { return len(c.armed) >= n })
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.armed)
}

// took runs arrive, which hands the loop under test some work, and
// waits until the loop has read the clock since: the loop has then
// taken the work, and finishes with it before it can see a timer the
// test fires next.
func (c *fakeClock) took(t *testing.T, arrive func()) {
	t.Helper()
	c.mu.Lock()
	n := c.reads
	c.mu.Unlock()
	arrive()
	c.await(t, "the loop to take the work", func() bool { return c.reads > n })
}
