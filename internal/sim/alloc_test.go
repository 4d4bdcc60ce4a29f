package sim

import (
	"testing"
	"time"
)

// TestScheduleZeroAlloc guards the typed-heap/free-list event queue: a
// steady-state Schedule/Step cycle must not allocate. The historical
// container/heap implementation boxed every event through `any` and
// allocated a fresh event per Schedule; regaining either fails this.
func TestScheduleZeroAlloc(t *testing.T) {
	c := NewVirtualClock()
	fn := func() {}
	// Warm up: grow the heap slice and populate the free list.
	for i := 0; i < 64; i++ {
		c.Schedule(time.Duration(i), fn)
	}
	c.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Schedule(c.Now()+time.Microsecond, fn)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("VirtualClock.Schedule+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleReservedZeroAlloc guards the reserved-position push: it
// shares Schedule's pooled events and must not allocate either.
func TestScheduleReservedZeroAlloc(t *testing.T) {
	c := NewVirtualClock()
	fn := func() {}
	for i := 0; i < 64; i++ {
		c.Schedule(time.Duration(i), fn)
	}
	c.RunAll()
	first := c.Reserve(2000)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.ScheduleReserved(c.Now()+time.Microsecond, first+i, fn)
		i++
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("VirtualClock.ScheduleReserved+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestEventOrderAfterRecycle pins that free-list recycling does not
// corrupt ordering: interleaved schedules at equal and distinct times
// still run in (time, FIFO) order.
func TestEventOrderAfterRecycle(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	note := func(i int) func() { return func() { got = append(got, i) } }
	c.Schedule(3*time.Millisecond, note(3))
	c.Schedule(1*time.Millisecond, note(1))
	c.Step() // runs note(1); its event returns to the free list
	c.Schedule(2*time.Millisecond, note(2))
	c.Schedule(2*time.Millisecond, note(22))
	c.RunAll()
	want := []int{1, 2, 22, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// BenchmarkSchedule measures the event queue's steady-state cost.
func BenchmarkSchedule(b *testing.B) {
	c := NewVirtualClock()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Schedule(c.Now()+time.Microsecond, fn)
		c.Step()
	}
}
