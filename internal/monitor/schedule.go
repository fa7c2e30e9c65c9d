package monitor

import "time"

// clock is the monitor's only source of time: the schedule's timers,
// the assessment and error stamps, the publish latency and the age
// gauges all read it, so an in-package test can step them exactly.
type clock interface {
	Now() time.Time
	After(time.Duration) <-chan time.Time
}

// realClock is the wall clock, the default of New and NewTARAMonitor.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// schedule is the dispatch policy both monitor loops share. Work that
// reaches an idle loop runs at once — the leading edge. Idle means no
// timer is armed (no trailing debounce, no retry backoff, and so
// nothing pending) and at least debounce has passed since the last
// loop pass ended, or no loop pass has ended yet. An isolated change is
// then assessed the moment it lands, while a burst coalesces behind a
// trailing debounce that maxLag bounds. A failed pass retries after an
// exponential backoff that later work joins instead of re-arming.
//
// The initial (or restored) pass runs before the loop and does not
// count as a loop pass, so the first work after startup is
// leading-edge.
type schedule struct {
	clock            clock
	debounce, maxLag time.Duration
	// timer fires the next pass: the trailing debounce or the retry
	// backoff. Nil when none is armed (a nil channel blocks its select
	// case).
	timer      <-chan time.Time
	lagAt      time.Time // latest start of the debounced pass
	failStreak uint      // consecutive failed passes
	lastEnd    time.Time // when the last loop pass ended
}

// arrive records work reaching the loop and reports whether a pass
// should start now: it does when the loop is idle. Otherwise the work
// waits for the armed timer: a retry backoff stands as it is
// (re-arming it would let steady work retry an outage at debounce
// cadence), and the trailing debounce restarts, but never past maxLag
// after the first deferred arrival.
func (s *schedule) arrive() bool {
	now := s.clock.Now()
	if s.timer == nil && (s.lastEnd.IsZero() || now.Sub(s.lastEnd) >= s.debounce) {
		return true
	}
	if s.failStreak > 0 {
		return false
	}
	if s.timer == nil {
		s.lagAt = now.Add(s.maxLag)
	}
	s.timer = s.clock.After(min(s.debounce, s.lagAt.Sub(now)))
	return false
}

// ran records the end of a loop pass; a failed pass arms the retry.
func (s *schedule) ran(failed bool) {
	s.lastEnd = s.clock.Now()
	s.timer = nil
	if failed {
		s.fail()
	} else {
		s.failStreak = 0
	}
}

// fail arms the retry backoff after a failed pass. The loops call it
// directly only for a failed initial or restored pass, which leaves
// lastEnd zero.
func (s *schedule) fail() {
	s.timer = s.clock.After(s.retryDelay())
	s.failStreak++
}

// retryDelay doubles the debounce per consecutive failure, capped at
// 30 s.
func (s *schedule) retryDelay() time.Duration {
	const maxDelay = 30 * time.Second
	delay := s.debounce
	for i := uint(0); i < s.failStreak && delay < maxDelay; i++ {
		delay *= 2
	}
	return min(delay, maxDelay)
}
