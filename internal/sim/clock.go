package sim

import (
	"time"
)

// Clock abstracts time for the serving stack so the same engine code runs
// under a discrete-event virtual clock (hour-long cluster experiments in
// milliseconds of wall time) and under wall-clock pacing (the HTTP demo).
type Clock interface {
	// Now returns the current simulation time as an offset from the
	// simulation epoch.
	Now() time.Duration
}

// VirtualClock is a discrete-event simulation clock. Events are scheduled
// at absolute times and executed in order; Run advances time to each event
// in sequence. The zero value is ready to use.
//
// The event queue is a typed binary heap over a free-listed event pool:
// steady-state Schedule/Step cycles allocate nothing (the historical
// container/heap implementation boxed every event through `any` and
// allocated one event per Schedule), which matters when a million-request
// trace schedules millions of events.
type VirtualClock struct {
	now      time.Duration
	events   []*event
	free     []*event
	seq      int64
	executed int64
}

// NewVirtualClock returns a clock positioned at t=0 with no pending events.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{}
}

// Now returns the current simulation time.
func (c *VirtualClock) Now() time.Duration { return c.now }

// Schedule enqueues fn to run at absolute time at. Events scheduled for the
// same instant run in scheduling order (FIFO), which keeps simulations
// deterministic. Scheduling in the past is clamped to now.
//
//punica:zeroalloc event scheduling recycles pooled events in steady state
func (c *VirtualClock) Schedule(at time.Duration, fn func()) {
	c.seq++
	c.schedule(at, c.seq, fn)
}

// Reserve sets aside n consecutive scheduling positions and returns the
// first; the block ends at first+n-1. An event later scheduled into
// position first+i with ScheduleReserved runs exactly where it would
// have run had it been scheduled now, i-th of n: after every event
// already scheduled for its instant and before every event scheduled
// for that instant after this call. A stream of events (a trace's
// arrivals) can so keep one pending event at a time and still fire in
// the order of scheduling them all up front.
func (c *VirtualClock) Reserve(n int) (first int64) {
	first = c.seq + 1
	c.seq += int64(n)
	return first
}

// ScheduleReserved enqueues fn at absolute time at in position seq, one
// of the positions a Reserve call set aside; each may be used once.
// Scheduling in the past is clamped to now, as with Schedule.
//
//punica:zeroalloc shares Schedule's pooled push
func (c *VirtualClock) ScheduleReserved(at time.Duration, seq int64, fn func()) {
	c.schedule(at, seq, fn)
}

// schedule pushes fn at (at, seq) on a pooled event.
//
//punica:zeroalloc event scheduling recycles pooled events in steady state
func (c *VirtualClock) schedule(at time.Duration, seq int64, fn func()) {
	if at < c.now {
		at = c.now
	}
	var ev *event
	if n := len(c.free); n > 0 {
		ev = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		ev = new(event) //punica:alloc-ok pool miss: grows the event pool once, recycled thereafter
	}
	ev.at, ev.seq, ev.fn = at, seq, fn
	c.push(ev)
}

// ScheduleAfter enqueues fn to run delay after the current time.
func (c *VirtualClock) ScheduleAfter(delay time.Duration, fn func()) {
	c.Schedule(c.now+delay, fn)
}

// maxFreeEvents caps the event free list. Uncapped, a requeue spike that
// momentarily schedules hundreds of thousands of events would pin a
// peak-sized pool for the rest of the run; past the cap, retired events
// fall to the garbage collector and the pool shrinks back to steady
// state.
const maxFreeEvents = 4096

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event ran.
func (c *VirtualClock) Step() bool {
	if len(c.events) == 0 {
		return false
	}
	ev := c.pop()
	c.now = ev.at
	c.executed++
	fn := ev.fn
	ev.fn = nil // release the closure before recycling
	if len(c.free) < maxFreeEvents {
		c.free = append(c.free, ev)
	}
	fn()
	return true
}

// Run executes events until none remain or the clock passes until. Events
// scheduled exactly at until still run. It returns the number of events
// executed.
func (c *VirtualClock) Run(until time.Duration) int {
	n := 0
	for len(c.events) > 0 {
		if c.events[0].at > until {
			break
		}
		c.Step()
		n++
	}
	if c.now < until {
		c.now = until
	}
	return n
}

// RunAll executes all pending events (including ones scheduled by other
// events) and returns the count. Use with care: a self-rescheduling event
// makes this loop forever.
func (c *VirtualClock) RunAll() int {
	n := 0
	for c.Step() {
		n++
	}
	return n
}

// Pending returns the number of events waiting to run.
func (c *VirtualClock) Pending() int { return len(c.events) }

// NextAt returns the timestamp of the earliest pending event. ok is
// false when no events are pending. The epoch-barrier executor uses it
// to fast-forward past empty stretches of simulated time without
// spinning through idle barriers.
func (c *VirtualClock) NextAt() (at time.Duration, ok bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].at, true
}

// freeListLen exposes the recycled-event pool size to the cap test.
func (c *VirtualClock) freeListLen() int { return len(c.free) }

// Executed returns the total number of events run since creation — the
// denominator for events/sec and allocs/event in the scale harness.
func (c *VirtualClock) Executed() int64 { return c.executed }

type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

// less orders events by time, ties broken by scheduling order (FIFO).
func (c *VirtualClock) less(i, j int) bool {
	a, b := c.events[i], c.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap (sift-up).
func (c *VirtualClock) push(ev *event) {
	c.events = append(c.events, ev)
	i := len(c.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.events[i], c.events[parent] = c.events[parent], c.events[i]
		i = parent
	}
}

// pop removes and returns the earliest event (sift-down).
func (c *VirtualClock) pop() *event {
	h := c.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	c.events = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.less(l, smallest) {
			smallest = l
		}
		if r < n && c.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		c.events[i], c.events[smallest] = c.events[smallest], c.events[i]
		i = smallest
	}
	return top
}

// WallClock is a Clock backed by real time, for the interactive serving
// demo. Time is measured from the moment the clock is created.
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a wall clock whose epoch is the current instant.
func NewWallClock() *WallClock {
	return &WallClock{epoch: time.Now()} //punica:nondet-ok WallClock IS the real-time bridge for the serving demo
}

// Now returns the elapsed real time since the clock was created.
func (c *WallClock) Now() time.Duration {
	return time.Since(c.epoch) //punica:nondet-ok WallClock IS the real-time bridge for the serving demo
}
