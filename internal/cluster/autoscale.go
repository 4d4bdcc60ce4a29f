package cluster

import (
	"fmt"
	"time"

	"punica/internal/core"
)

// AutoscaleConfig enables elastic GPU provisioning per §5.1: the cluster
// starts with MinGPUs, requests another GPU (after ProvisionDelay)
// whenever no lightly-loaded GPU exists, and returns idle GPUs to the
// provider down to MinGPUs.
type AutoscaleConfig struct {
	MinGPUs int
	MaxGPUs int
	// ProvisionDelay models cloud GPU attach time (VM boot + backbone
	// weight load).
	ProvisionDelay time.Duration
	// CheckInterval is the autoscaler's evaluation period.
	CheckInterval time.Duration
}

func (a AutoscaleConfig) validate() AutoscaleConfig {
	if a.MinGPUs < 1 {
		a.MinGPUs = 1
	}
	if a.MaxGPUs < a.MinGPUs {
		a.MaxGPUs = a.MinGPUs
	}
	if a.CheckInterval <= 0 {
		a.CheckInterval = 10 * time.Second
	}
	return a
}

// poolBounds is one role pool's elastic floor and ceiling.
type poolBounds struct{ min, max int }

// autoscaler tracks elastic state inside a Cluster run. It scales per
// role pool: a unified fleet is the single-pool case (bit-identical to
// the pre-disaggregation autoscaler), a disaggregated fleet splits
// MinGPUs/MaxGPUs across the prefill and decode pools proportionally to
// their configured sizes — each pool then provisions and releases on its
// own §5.1 load signal, so a prefill burst cannot steal the decode
// pool's floor.
type autoscaler struct {
	cfg     AutoscaleConfig
	c       *Cluster
	standby []*runner // provisioned-capacity pool, offline
	online  map[*runner]time.Duration
	inBoot  map[core.Role]int
	// poolOrder fixes the evaluation order for determinism; pools maps
	// each served role to its bounds.
	poolOrder []core.Role
	pools     map[core.Role]poolBounds

	provisions  int64
	releases    int64
	gpuSecs     float64
	lastFinal   time.Duration
	finalOnline int
}

func (a *autoscaler) onlineInPool(role core.Role) int {
	n := 0
	for r := range a.online {
		if r.role == role {
			n++
		}
	}
	return n
}

func (a *autoscaler) inBootTotal() int {
	n := 0
	for _, v := range a.inBoot {
		n += v
	}
	return n
}

func (a *autoscaler) standbyInPool(role core.Role) bool {
	for _, r := range a.standby {
		if r.role == role {
			return true
		}
	}
	return false
}

// splitBounds apportions the fleet-wide min/max across the pools in
// proportion to their configured sizes. The sums are exact — pool
// floors add up to the fleet floor and ceilings to the fleet ceiling —
// so the operator's MinGPUs/MaxGPUs are never exceeded. Each pool needs
// at least one GPU to function, so the effective fleet floor is at
// least 2 (and every bound is capped at the provisioned pool sizes).
func splitBounds(min, max int, d DisaggConfig) map[core.Role]poolBounds {
	total := d.PrefillGPUs + d.DecodeGPUs
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	min = clamp(min, 2, total)
	max = clamp(max, min, total)
	// minP must leave the decode pool at least one GPU and at most its
	// pool size; the interval [min−D, min−1] ∩ [1, P] is never empty
	// because 2 ≤ min ≤ P+D.
	minP := clamp((min*d.PrefillGPUs+total/2)/total, 1, min-1)
	minP = clamp(minP, min-d.DecodeGPUs, d.PrefillGPUs)
	minD := min - minP
	// maxP likewise: maxD = max−maxP must fit in [minD, D].
	maxP := clamp((max*d.PrefillGPUs+total/2)/total, minP, max-minD)
	maxP = clamp(maxP, max-d.DecodeGPUs, d.PrefillGPUs)
	maxD := max - maxP
	return map[core.Role]poolBounds{
		core.RolePrefill: {min: minP, max: maxP},
		core.RoleDecode:  {min: minD, max: maxD},
	}
}

// setupAutoscale moves all but the per-pool floors into the standby
// pool. The scheduler starts with only the online set.
func (c *Cluster) setupAutoscale(cfg AutoscaleConfig) {
	cfg = cfg.validate()
	if cfg.MaxGPUs > len(c.gpus) {
		panic(fmt.Sprintf("cluster: autoscale MaxGPUs %d exceeds provisioned %d",
			cfg.MaxGPUs, len(c.gpus)))
	}
	a := &autoscaler{
		cfg:    cfg,
		c:      c,
		online: make(map[*runner]time.Duration),
		inBoot: make(map[core.Role]int),
	}
	if c.cfg.Disagg != nil {
		a.poolOrder = []core.Role{core.RolePrefill, core.RoleDecode}
		a.pools = splitBounds(cfg.MinGPUs, cfg.MaxGPUs, *c.cfg.Disagg)
	} else {
		a.poolOrder = []core.Role{core.RoleUnified}
		a.pools = map[core.Role]poolBounds{
			core.RoleUnified: {min: cfg.MinGPUs, max: cfg.MaxGPUs},
		}
	}
	started := make(map[core.Role]int)
	for _, r := range c.gpus {
		if started[r.role] < a.pools[r.role].min {
			started[r.role]++
			a.online[r] = 0
			continue
		}
		a.standby = append(a.standby, r)
		// Take offline: remove from the scheduler.
		if _, ok := c.sched.RemoveGPU(r.gpu.UUID); !ok {
			panic("cluster: could not take fresh GPU offline")
		}
	}
	c.scale = a
}

// tick evaluates the §5.1 conditions pool by pool.
func (a *autoscaler) tick() {
	now := a.c.clock.Now()
	for _, role := range a.poolOrder {
		b := a.pools[role]
		// Scale up: every GPU serving this pool is loaded and both
		// pool-level and fleet-level ceilings leave room.
		if a.c.sched.NeedMorePoolGPUs(role) &&
			a.onlineInPool(role)+a.inBoot[role] < b.max &&
			len(a.online)+a.inBootTotal() < a.cfg.MaxGPUs &&
			a.standbyInPool(role) {
			a.provision(role, now)
		}
		// Scale down: release the pool's idle GPUs beyond its floor.
		for a.onlineInPool(role) > b.min {
			released := false
			for _, g := range a.c.sched.ReleasablePoolGPUs(role) {
				if a.onlineInPool(role) <= b.min {
					break
				}
				if _, ok := a.c.sched.RemoveGPU(g.UUID); ok {
					r := a.c.runnerOf(g)
					a.gpuSecs += (now - a.online[r]).Seconds()
					delete(a.online, r)
					a.standby = append(a.standby, r)
					a.releases++
					a.c.res.BatchSeries[r.index].Add(now, 0)
					released = true
				}
			}
			if !released {
				break
			}
		}
	}
	if a.c.arrivalsLeft() > 0 || a.c.anyBusy() || a.c.sched.QueueLen() > 0 {
		a.c.clock.ScheduleAfter(a.cfg.CheckInterval, a.tick)
	} else {
		a.finish(now)
	}
}

// noteCrash reacts to an unplanned GPU loss: the victim leaves the
// online set (its GPU-seconds are charged up to the crash) and can never
// be re-provisioned from standby. When the crash leaves its pool below
// the provisioning floor, a standby GPU of the same role is booted
// immediately — replacement capacity for crashed capacity — instead of
// waiting for the next load tick.
func (a *autoscaler) noteCrash(r *runner, now time.Duration) {
	if since, ok := a.online[r]; ok {
		a.gpuSecs += (now - since).Seconds()
		delete(a.online, r)
	}
	for i, s := range a.standby {
		if s == r {
			a.standby = append(a.standby[:i], a.standby[i+1:]...)
			break
		}
	}
	b := a.pools[r.role]
	for a.onlineInPool(r.role)+a.inBoot[r.role] < b.min && a.standbyInPool(r.role) {
		a.provision(r.role, now)
	}
}

// provision boots the newest standby GPU of the pool; it attaches after
// ProvisionDelay and drains the queue into the new capacity.
func (a *autoscaler) provision(role core.Role, now time.Duration) {
	idx := -1
	for i := len(a.standby) - 1; i >= 0; i-- {
		if a.standby[i].role == role {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	r := a.standby[idx]
	a.standby = append(a.standby[:idx], a.standby[idx+1:]...)
	a.inBoot[role]++
	a.provisions++
	a.c.clock.Schedule(now+a.cfg.ProvisionDelay, func() {
		a.inBoot[role]--
		a.online[r] = a.c.clock.Now()
		a.c.sched.AddGPU(r.gpu)
		// Newly attached capacity drains the queue.
		placed, err := a.c.sched.DrainQueue(a.c.clock.Now())
		if err != nil {
			a.c.fail(fmt.Errorf("cluster: autoscale drain: %w", err))
			return
		}
		a.c.notePlacements(placed)
	})
}

// finish charges the remaining online time.
func (a *autoscaler) finish(now time.Duration) {
	if a.lastFinal != 0 {
		return
	}
	a.lastFinal = now
	a.finalOnline = len(a.online)
	// Sum durations as integers so the total is exact regardless of map
	// iteration order, then convert once; accumulating float seconds
	// per-runner made GPUSeconds vary in the last bits across runs.
	var online time.Duration
	for _, since := range a.online {
		online += now - since
	}
	a.gpuSecs += online.Seconds()
}

// AutoscaleStats summarises elastic behaviour after a run.
type AutoscaleStats struct {
	Provisions  int64
	Releases    int64
	GPUSeconds  float64
	FinalOnline int
}

// AutoscaleStats returns the elastic summary (zero value when autoscale
// was not enabled).
func (c *Cluster) AutoscaleStats() AutoscaleStats {
	if c.scale == nil {
		return AutoscaleStats{}
	}
	c.scale.finish(c.clock.Now())
	return AutoscaleStats{
		Provisions:  c.scale.provisions,
		Releases:    c.scale.releases,
		GPUSeconds:  c.scale.gpuSecs,
		FinalOnline: c.scale.finalOnline,
	}
}

// Online reports whether a GPU index is currently schedulable.
func (c *Cluster) Online(index int) bool {
	if index < 0 || index >= len(c.gpus) {
		return false
	}
	for _, g := range c.sched.GPUs() {
		if g == c.gpus[index].gpu {
			return true
		}
	}
	return false
}
