package cluster

import (
	"fmt"
	"time"

	"punica/internal/metrics"
	"punica/internal/sched"
	"punica/internal/sim"

	"punica/internal/core"
)

// FaultKind enumerates the unplanned-loss events the chaos harness
// injects. The §5.1 elasticity story covers the *planned* path (drain
// and release idle GPUs); these model the unplanned one: spot
// preemptions, runner crashes, and transient unresponsiveness.
type FaultKind int

const (
	// FaultCrash kills a GPU permanently: its KvCache and adapter pins
	// are lost, its working set is recovered through the scheduler with
	// prefill recomputation, and its capacity is gone for the rest of
	// the run (unless the autoscaler backfills from standby).
	FaultCrash FaultKind = iota
	// FaultCrashReplace is FaultCrash followed by a fresh replacement
	// GPU (cold adapter store, empty KvCache) attaching after
	// ReplaceDelay — the cloud re-provisioning path.
	FaultCrashReplace
	// FaultStall pauses a GPU between invocations for Stall: no state is
	// lost, but no step starts until the stall ends (ECC retirement,
	// network hiccup, noisy neighbour).
	FaultStall
)

// String names the kind for logs and tables.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultCrashReplace:
		return "crash+replace"
	case FaultStall:
		return "stall"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// DefaultReplaceDelay models cloud re-provisioning time for a crashed
// GPU's replacement (VM boot + backbone weight load), matching the
// autoscaler's provision delay scale.
const DefaultReplaceDelay = 40 * time.Second

// FaultEvent is one scheduled failure. GPU selects the victim at fire
// time: the event resolves against the fleet of currently alive, online
// GPUs (index modulo fleet size), so seeded plans stay meaningful as
// earlier events shrink or grow the fleet.
type FaultEvent struct {
	At   time.Duration
	GPU  int
	Kind FaultKind
	// Stall is the pause length for FaultStall.
	Stall time.Duration
	// ReplaceDelay is the replacement attach delay for FaultCrashReplace
	// (DefaultReplaceDelay when zero).
	ReplaceDelay time.Duration
}

// FaultPlan is a deterministic schedule of failures injected into a
// cluster run. The zero value injects nothing.
type FaultPlan struct {
	Events []FaultEvent
}

// RandomFaultPlan draws a seeded schedule over horizon for a fleet of
// numGPUs: failures arrive as a Poisson process at ratePerGPUHour per
// GPU, each event uniformly one of crash, crash-and-replace, or a 2–20 s
// transient stall. The plan is a pure function of its arguments, so two
// runs with the same seed inject byte-identical fault sequences.
func RandomFaultPlan(seed int64, numGPUs int, horizon time.Duration, ratePerGPUHour float64) FaultPlan {
	var plan FaultPlan
	if ratePerGPUHour <= 0 || numGPUs <= 0 || horizon <= 0 {
		return plan
	}
	rng := sim.NewRNG(seed)
	meanGap := 3600.0 / (ratePerGPUHour * float64(numGPUs)) // seconds
	t := time.Duration(rng.Exponential(meanGap) * float64(time.Second))
	for t < horizon {
		ev := FaultEvent{
			At:   t,
			GPU:  rng.Intn(numGPUs),
			Kind: FaultKind(rng.Intn(3)),
		}
		switch ev.Kind {
		case FaultStall:
			ev.Stall = time.Duration(2+rng.Intn(19)) * time.Second
		case FaultCrashReplace:
			ev.ReplaceDelay = time.Duration(20+rng.Intn(41)) * time.Second
		}
		plan.Events = append(plan.Events, ev)
		t += time.Duration(rng.Exponential(meanGap) * float64(time.Second))
	}
	return plan
}

// FailGPU schedules a permanent crash of the named GPU at simulation
// time at. It is the direct-injection entry point; trace-driven chaos
// runs use Config.Faults instead.
func (c *Cluster) FailGPU(uuid string, at time.Duration) {
	c.clock.Schedule(at, func() {
		for _, r := range c.gpus {
			if r.gpu.UUID == uuid {
				c.crashGPU(r, FaultEvent{Kind: FaultCrash})
				return
			}
		}
	})
}

// scheduleFaults installs the plan's events on the virtual clock.
func (c *Cluster) scheduleFaults(plan *FaultPlan) {
	for i := range plan.Events {
		ev := plan.Events[i]
		c.clock.Schedule(ev.At, func() { c.injectFault(ev) })
	}
}

// injectFault resolves an event's victim against the alive online fleet
// and applies it. Crashes that would kill the last alive GPU are
// downgraded to stalls: a cluster with zero capacity can never finish
// its trace, and the harness's contract is that every request completes.
func (c *Cluster) injectFault(ev FaultEvent) {
	alive := c.aliveOnline()
	if len(alive) == 0 {
		c.res.FaultsSkipped++
		return
	}
	victim := alive[((ev.GPU%len(alive))+len(alive))%len(alive)]
	switch ev.Kind {
	case FaultStall:
		c.stallGPU(victim, ev.Stall)
	case FaultCrash, FaultCrashReplace:
		if ev.Kind == FaultCrash && c.lastPrefillCapable(victim, alive) {
			// Killing the last prefill-capable GPU permanently would
			// strand the queue: nothing could ever admit new (or
			// recompute-path) requests again. A decode pool dying is
			// survivable — prefill engines decode their requests in
			// place — but prefill extinction is not; downgrade to a
			// stall, like the unified last-alive-GPU rule.
			stall := ev.Stall
			if stall <= 0 {
				stall = 5 * time.Second
			}
			c.res.FaultsSkipped++
			c.stallGPU(victim, stall)
			return
		}
		c.crashGPU(victim, ev)
	}
}

// lastPrefillCapable reports whether victim is the only alive GPU that
// can admit new requests (in a unified fleet: the only alive GPU).
func (c *Cluster) lastPrefillCapable(victim *runner, alive []*runner) bool {
	if !prefillCapable(victim.role) {
		return false
	}
	for _, r := range alive {
		if r != victim && prefillCapable(r.role) {
			return false
		}
	}
	return true
}

// aliveOnline returns the runners that are schedulable right now: not
// crashed and registered with the scheduler (autoscale standby GPUs are
// offline and cannot fail — they are not running).
func (c *Cluster) aliveOnline() []*runner {
	var out []*runner
	for _, g := range c.sched.GPUs() {
		r := c.runnerOf(g)
		if !r.crashed {
			out = append(out, r)
		}
	}
	return out
}

// stallGPU pauses a runner until now+d. An in-flight invocation
// completes (its results were already committed at step granularity);
// no new step starts before the stall ends.
func (c *Cluster) stallGPU(r *runner, d time.Duration) {
	if r.crashed || d <= 0 {
		return
	}
	until := c.clock.Now() + d
	if until <= r.stalledUntil {
		return
	}
	r.stalledUntil = until
	c.res.GPUStalls++
	c.clock.Schedule(until, r.kick)
}

// crashGPU kills a runner. The failure takes effect at the next
// invocation boundary — the simulator commits each step's effects when
// the step is issued, so a step in flight at the fault instant is
// charged as the GPU's final completed invocation (tens of milliseconds
// of granularity). Everything resident at that boundary loses its
// KvCache, has its adapter pin force-released with exact store
// accounting, and is re-dispatched FCFS through the scheduler for
// prefill recomputation, mirroring the §5.3 eviction path.
func (c *Cluster) crashGPU(r *runner, ev FaultEvent) {
	if r.crashed {
		return
	}
	if r.stepInFlight {
		if r.crashPending == nil {
			r.crashPending = &ev
		}
		return
	}
	c.doCrash(r, ev)
}

func (c *Cluster) doCrash(r *runner, ev FaultEvent) {
	now := c.clock.Now()
	r.crashed = true
	r.stalledUntil = 0
	c.res.GPUFailures++
	// Forced removal salvages the working set through the engine's
	// Crasher implementation; an autoscale-standby GPU is offline (not
	// under the scheduler) and is drained directly instead.
	_, lost, lostKV, found := c.sched.FailGPU(r.gpu.UUID, now)
	if !found {
		lost, lostKV = r.eng.Crash(now)
	}
	if c.scale != nil {
		c.scale.noteCrash(r, now)
	}
	c.res.RecomputedPrefillTokens += int64(lostKV)
	c.res.BatchSeries[r.index].Add(now, 0)
	for _, req := range lost {
		c.res.RecoveredRequests++
		c.recovering[req.ID] = now
		g, err := c.sched.Requeue(req, now)
		if err != nil {
			c.fail(fmt.Errorf("cluster: requeue after crash of %s: %w", r.gpu.UUID, err))
			return
		}
		if g != nil {
			c.noteRecovered(req.ID)
			c.runnerOf(g).kick()
		}
	}
	if ev.Kind == FaultCrashReplace {
		delay := ev.ReplaceDelay
		if delay <= 0 {
			delay = DefaultReplaceDelay
		}
		role := r.role
		c.clock.ScheduleAfter(delay, func() { c.attachReplacement(role) })
	}
}

// attachReplacement provisions a brand-new GPU (fresh engine: cold
// adapter store, empty KvCache) for crashed capacity and drains the
// FCFS queue into it. The replacement inherits the crashed GPU's pool
// role, so a disaggregated fleet keeps its shape through churn.
func (c *Cluster) attachReplacement(role core.Role) {
	now := c.clock.Now()
	ec := c.cfg.Engine
	ec.OnToken = c.noteToken
	ec.OnFinish = nil
	ec.AdapterRank = c.cfg.AdapterRank
	ec.Role = role
	eng := core.NewEngine(ec)
	idx := len(c.gpus)
	g := &sched.GPU{UUID: fmt.Sprintf("gpu-%02d", idx), Engine: eng, Role: role}
	r := c.newRunner(g, eng, idx)
	c.gpus = append(c.gpus, r)
	c.byGPU[g] = r
	c.res.BatchSeries = append(c.res.BatchSeries, metrics.TimeSeries{})
	c.res.GPUReplacements++
	c.sched.AddGPU(g)
	if c.scale != nil {
		c.scale.online[r] = now
	}
	placed, err := c.sched.DrainQueue(now)
	if err != nil {
		c.fail(fmt.Errorf("cluster: drain into replacement: %w", err))
		return
	}
	c.notePlacements(placed)
}

// notePlacements kicks the runners that received queued work and closes
// out recovery-latency measurements for requests that had been waiting
// since a crash.
func (c *Cluster) notePlacements(placed []sched.Placement) {
	for _, p := range placed {
		c.noteRecovered(p.Request.ID)
		c.runnerOf(p.GPU).kick()
	}
}

// noteRecovered records the failure→re-placement latency of a request
// recovered from a crashed GPU, once.
func (c *Cluster) noteRecovered(id int64) {
	at, ok := c.recovering[id]
	if !ok {
		return
	}
	c.res.RecoveryLatency.AddDuration(c.clock.Now() - at)
	delete(c.recovering, id)
}
