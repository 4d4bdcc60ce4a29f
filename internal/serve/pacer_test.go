package serve

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a Pacer clock that moves only when the pacer sleeps or
// the test advances it. Every sleep lasts what was asked plus overshoot.
type fakeClock struct {
	t         time.Time
	overshoot time.Duration
	slept     []time.Duration // requested durations, in order
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.t = c.t.Add(d + c.overshoot)
}

// pacerSpeedup converts modelled step latencies to wall time in these
// tests: a 4 ms step paces at 0.4 ms of wall time.
const pacerSpeedup = 10

func newFakePacer(overshoot time.Duration) (*Pacer, *fakeClock, *sync.Mutex) {
	clk := &fakeClock{t: time.Unix(1000, 0), overshoot: overshoot}
	p := newPacer(pacerSpeedup, clk.now, clk.sleep)
	var mu sync.Mutex
	mu.Lock()
	return &p, clk, &mu
}

// steps runs n steps of modelled latency lat and returns how many of
// them ended in a sleep.
func steps(p *Pacer, mu *sync.Mutex, clk *fakeClock, n int, lat time.Duration) int {
	before := len(clk.slept)
	for i := 0; i < n; i++ {
		p.Step(mu, lat)
	}
	return len(clk.slept) - before
}

func TestPacerSleepsExactlyEachStepWithoutOvershoot(t *testing.T) {
	p, clk, mu := newFakePacer(0)
	start := clk.now()
	const n = 50
	if slept := steps(p, mu, clk, n, 4*time.Millisecond); slept != n {
		t.Fatalf("%d of %d steps slept", slept, n)
	}
	for i, d := range clk.slept {
		if d != 400*time.Microsecond {
			t.Fatalf("sleep %d = %v, want the step's wall latency 400µs", i, d)
		}
	}
	if got, want := clk.now().Sub(start), n*400*time.Microsecond; got != want {
		t.Fatalf("%d steps took %v, want %v", n, got, want)
	}
	if got, want := p.SimNow(), n*4*time.Millisecond; got != want {
		t.Fatalf("SimNow = %v, want %v", got, want)
	}
}

// TestPacerRepaysOvershoot: every sleep overshoots by a whole 1 ms tick,
// more than twice the 0.4 ms step. Sleeping each step's latency from its
// end (no deadline) would take 1.4 ms a step; paced against deadlines,
// the following steps run early and N steps end within one tick of
// N × step.
func TestPacerRepaysOvershoot(t *testing.T) {
	const tick = time.Millisecond
	p, clk, mu := newFakePacer(tick)
	start := clk.now()
	const n = 200
	slept := steps(p, mu, clk, n, 4*time.Millisecond)
	ideal := n * 400 * time.Microsecond
	if got := clk.now().Sub(start); got < ideal || got > ideal+tick {
		t.Fatalf("%d steps took %v, want within one tick of %v", n, got, ideal)
	}
	if slept == n {
		t.Fatal("every step slept: the overshoot was never repaid")
	}
}

// TestPacerRestartsAfterStall: a stall is repaid only up to
// max(step, catchUpSlack). Past it the schedule restarts from now, so no
// burst of catch-up steps follows.
func TestPacerRestartsAfterStall(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lat     time.Duration // modelled step latency
		stall   time.Duration // wall time one step takes to run
		restart bool
	}{
		// A 0.4 ms step is bounded by the 2 ms slack: 1.9 ms behind is
		// repaid, 2.1 ms behind restarts.
		{"short-step-repaid", 4 * time.Millisecond, 2300 * time.Microsecond, false},
		{"short-step-restarts", 4 * time.Millisecond, 2500 * time.Microsecond, true},
		{"short-step-long-stall", 4 * time.Millisecond, 50 * time.Millisecond, true},
		// A 5 ms step is bounded by itself: 4 ms behind is repaid, 6 ms
		// behind restarts.
		{"long-step-repaid", 50 * time.Millisecond, 9 * time.Millisecond, false},
		{"long-step-restarts", 50 * time.Millisecond, 11 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, clk, mu := newFakePacer(0)
			w := p.WallDelay(tc.lat)
			steps(p, mu, clk, 10, tc.lat)
			clk.t = clk.t.Add(tc.stall) // the next step stalls
			const n = 40
			after := clk.now()
			burst := n - steps(p, mu, clk, n, tc.lat)
			// The stalled step itself always runs due; every further
			// step without a sleep is catch-up.
			catchUp := time.Duration(burst-1) * w
			if catchUp > max(w, catchUpSlack) {
				t.Fatalf("%d catch-up steps (%v) after a %v stall, bound %v",
					burst-1, catchUp, tc.stall, max(w, catchUpSlack))
			}
			elapsed := clk.now().Sub(after)
			if tc.restart {
				// Restarted from the stalled step's end: n-1 full steps.
				if want := time.Duration(n-1) * w; elapsed != want {
					t.Fatalf("%d steps after the stall took %v, want %v (schedule restarted)", n, elapsed, want)
				}
			} else {
				// Repaid: the steps end on the original schedule.
				if want := time.Duration(n)*w - tc.stall; elapsed != want {
					t.Fatalf("%d steps after the stall took %v, want %v (stall repaid)", n, elapsed, want)
				}
			}
		})
	}
}

// TestPacerRestartsAfterIdleness: an idle gap shorter than the
// catch-up bound is not repaid — a driver waking from idleness starts a
// fresh schedule, whether it slept (Sleep) or waited for work (Wait).
func TestPacerRestartsAfterIdleness(t *testing.T) {
	const idle = 1500 * time.Microsecond
	check := func(t *testing.T, p *Pacer, mu *sync.Mutex, clk *fakeClock) {
		t.Helper()
		before := len(clk.slept)
		if slept := steps(p, mu, clk, 5, 4*time.Millisecond); slept != 5 {
			t.Fatalf("%d of 5 steps after idleness slept: idle time repaid as catch-up", slept)
		}
		for _, d := range clk.slept[before:] {
			if d != 400*time.Microsecond {
				t.Fatalf("step after idleness slept %v, want 400µs", d)
			}
		}
	}
	t.Run("sleep", func(t *testing.T) {
		p, clk, mu := newFakePacer(0)
		steps(p, mu, clk, 10, 4*time.Millisecond)
		p.Sleep(mu, pacerSpeedup*idle)
		check(t, p, mu, clk)
	})
	t.Run("wait", func(t *testing.T) {
		p, clk, mu := newFakePacer(0)
		steps(p, mu, clk, 10, 4*time.Millisecond)
		c := sync.NewCond(mu)
		woken := false
		go func() {
			mu.Lock()
			defer mu.Unlock()
			clk.t = clk.t.Add(idle)
			woken = true
			c.Signal()
		}()
		for !woken {
			p.Wait(c)
		}
		check(t, p, mu, clk)
	})
}

// TestPacerSleepAdvancesTheClock: a simulated sleep shorter than one
// wall nanosecond at this speedup still sleeps, so an idle driver whose
// next wake is that close does not spin, and a clock that moves only
// when slept on moves.
func TestPacerSleepAdvancesTheClock(t *testing.T) {
	p, clk, mu := newFakePacer(0)
	p.Sleep(mu, 5*time.Nanosecond)
	if len(clk.slept) != 1 || clk.slept[0] <= 0 {
		t.Fatalf("Sleep(5ns) at speedup %d slept %v, want one positive sleep", pacerSpeedup, clk.slept)
	}
	if p.SimNow() <= 0 {
		t.Fatalf("SimNow = %v after Sleep(5ns), want > 0", p.SimNow())
	}
}
