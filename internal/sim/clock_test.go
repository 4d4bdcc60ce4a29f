package sim

import (
	"sort"
	"testing"
	"time"
)

func TestVirtualClockOrdering(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	c.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	n := c.RunAll()
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", c.Now())
	}
}

func TestVirtualClockFIFOAtSameInstant(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	c.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestVirtualClockRunUntil(t *testing.T) {
	c := NewVirtualClock()
	ran := 0
	for i := 1; i <= 5; i++ {
		c.Schedule(time.Duration(i)*time.Second, func() { ran++ })
	}
	n := c.Run(3 * time.Second)
	if n != 3 || ran != 3 {
		t.Fatalf("Run(3s) executed %d events (callback saw %d), want 3", n, ran)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("clock at %v, want 3s", c.Now())
	}
	if c.Pending() != 2 {
		t.Fatalf("%d pending, want 2", c.Pending())
	}
}

func TestVirtualClockCascade(t *testing.T) {
	c := NewVirtualClock()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			c.ScheduleAfter(time.Second, recurse)
		}
	}
	c.ScheduleAfter(time.Second, recurse)
	c.RunAll()
	if depth != 5 {
		t.Fatalf("cascade depth %d, want 5", depth)
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", c.Now())
	}
}

func TestSchedulePastClamps(t *testing.T) {
	c := NewVirtualClock()
	c.Schedule(10*time.Second, func() {})
	c.Step()
	fired := time.Duration(-1)
	c.Schedule(time.Second, func() { fired = c.Now() })
	c.Step()
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamped to 10s", fired)
	}
}

func TestWallClockMonotonic(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

// TestScheduleReservedMatchesUpFront streams a batch of events through
// reserved positions, one pending at a time, and checks they interleave
// with other events exactly as when the batch is scheduled up front:
// the batch runs in order of max(at, 0), then index; at a shared
// instant it runs after the events scheduled before the reservation and
// before those scheduled after it, the ones its own events schedule
// included.
func TestScheduleReservedMatchesUpFront(t *testing.T) {
	rng := NewRNG(5)
	const n = 200
	ats := make([]time.Duration, n)
	for i := range ats {
		// Few distinct instants, some before t=0, in no order.
		ats[i] = time.Duration(rng.Intn(12)-2) * time.Millisecond
	}
	run := func(stream bool) []int {
		c := NewVirtualClock()
		var got []int
		note := func(id int) func() { return func() { got = append(got, id) } }
		for k := 0; k < 5; k++ { // scheduled before the batch
			c.Schedule(time.Duration(k*2)*time.Millisecond, note(-1-k))
		}
		fire := func(i int) {
			got = append(got, i)
			if i%7 == 0 { // a batch event scheduling follow-ups at its instant
				c.Schedule(c.Now(), note(1000+i))
			}
		}
		if stream {
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			key := func(i int) time.Duration { return max(ats[i], 0) }
			sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
			first := c.Reserve(n)
			next := 0
			var arrive func()
			push := func() {
				if next < n {
					i := order[next]
					c.ScheduleReserved(ats[i], first+int64(i), arrive)
				}
			}
			arrive = func() {
				i := order[next]
				next++
				push()
				fire(i)
			}
			push()
		} else {
			for i := range ats {
				i := i
				c.Schedule(ats[i], func() { fire(i) })
			}
		}
		for k := 0; k < 5; k++ { // scheduled after the batch
			c.Schedule(time.Duration(k*2+1)*time.Millisecond, note(-100-k))
			c.Schedule(time.Duration(k*2)*time.Millisecond, note(-200-k))
		}
		c.RunAll()
		return got
	}
	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatalf("streamed run fired %d events, up-front run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: streamed run fired %d, up-front run %d", i, got[i], want[i])
		}
	}
}
