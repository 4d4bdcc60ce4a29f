package serve

import (
	"runtime"
	"sync"
	"time"
)

// catchUpSlack is the floor of the catch-up bound: a driver up to
// max(step, catchUpSlack) behind its schedule repays it by running due
// steps back to back; further behind, it restarts its schedule from now
// instead. It is one runtime timer tick plus scheduling delay: the runtime's epoll wait rounds every sub-millisecond
// timeout up to 1 ms (runtime/netpoll_epoll.go), so a sleep shorter than
// a tick overshoots by up to a tick, and a driver must be allowed at
// least that much debt to repay it. DESIGN.md §15 records the measured
// alternatives (a one-step bound, no yield, no bound).
const catchUpSlack = 2 * time.Millisecond

// Pacer is a live deployment's clock and one GPU driver's step pacer.
//
// Simulated time is the wall time elapsed since the Pacer was built,
// times the speedup. Steps are paced against absolute wall deadlines:
// each step's deadline is the previous one plus the step's modelled
// latency in wall time, so the overshoot of one sleep is repaid by
// running the following steps early instead of slowing the GPU below
// its model. A driver that falls behind by more than
// max(step, catchUpSlack), or that wakes from idleness, restarts its
// schedule from now rather than bursting.
//
// A Pacer value holds one driver's schedule. Copies share the clock
// (start and speedup) but not the schedule, so a deployment with several
// drivers builds one Pacer and hands each driver its own copy.
type Pacer struct {
	speedup float64
	start   time.Time
	now     func() time.Time
	sleep   func(time.Duration)
	// next is the wall time the driver's next step is due.
	next time.Time
}

// NewPacer returns a Pacer on the wall clock whose simulated time starts
// now. speedup (> 0) divides simulated latencies into wall time.
func NewPacer(speedup float64) Pacer {
	return newPacer(speedup, time.Now, time.Sleep)
}

func newPacer(speedup float64, now func() time.Time, sleep func(time.Duration)) Pacer {
	start := now()
	return Pacer{speedup: speedup, start: start, now: now, sleep: sleep, next: start}
}

// SimNow converts elapsed wall time into simulation time.
func (p *Pacer) SimNow() time.Duration {
	return time.Duration(float64(p.now().Sub(p.start)) * p.speedup)
}

// WallDelay converts a simulated duration into wall time.
func (p *Pacer) WallDelay(d time.Duration) time.Duration {
	w := time.Duration(float64(d) / p.speedup)
	if w < 0 {
		return 0
	}
	return w
}

// Step paces the driver after a step of modelled latency, with mu (the
// driver's lock) held: it releases mu until the next step is due. A
// step already due runs after one lock release and a yield, so handlers
// waiting on mu still get in between catch-up steps.
func (p *Pacer) Step(mu sync.Locker, latency time.Duration) {
	w := p.WallDelay(latency)
	now := p.now()
	p.next = p.next.Add(w)
	late := now.Sub(p.next)
	if late > max(w, catchUpSlack) {
		p.next = now
	}
	mu.Unlock()
	if late < 0 {
		p.sleep(-late)
	} else {
		runtime.Gosched()
	}
	mu.Lock()
}

// Sleep parks an idle driver for a simulated duration with mu released;
// the schedule restarts from the wake. Any positive d sleeps at least
// 1 ns of wall time, even when its wall delay truncates to zero: a
// driver idle until a wake that close would otherwise loop without
// sleeping, and on a clock that moves only when slept on, forever.
func (p *Pacer) Sleep(mu sync.Locker, d time.Duration) {
	mu.Unlock()
	if d > 0 {
		p.sleep(max(p.WallDelay(d), time.Nanosecond))
	}
	mu.Lock()
	p.next = p.now()
}

// Wait parks an idle driver on c until it is signalled; the schedule
// restarts from the wake.
func (p *Pacer) Wait(c *sync.Cond) {
	c.Wait()
	p.next = p.now()
}
