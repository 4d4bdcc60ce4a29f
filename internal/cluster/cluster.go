// Package cluster is the discrete-event simulator that drives one or more
// serving engines under a request trace: arrivals dispatch through the
// Punica scheduler, each GPU runs invocations back-to-back, evictions are
// re-scheduled, and periodic consolidation migrates requests off
// lightly-loaded GPUs (§5, §7.3).
//
// An hour-long 16-GPU run executes in seconds of wall time while
// preserving the ordering semantics of the real system.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/metrics"
	"punica/internal/sched"
	"punica/internal/sim"
	"punica/internal/workload"
)

// Config describes a simulated deployment.
type Config struct {
	// NumGPUs is the number of engines (each may itself be a TP group).
	NumGPUs int
	// Engine is the per-GPU engine template (System, GPU, Model, Rank,
	// TP, overrides). Token/finish callbacks are owned by the cluster.
	Engine core.Config
	// MigrationInterval enables periodic consolidation when > 0.
	MigrationInterval time.Duration
	// Autoscale enables §5.1 elastic provisioning: NumGPUs becomes the
	// provisioned capacity ceiling, and the run starts with
	// Autoscale.MinGPUs online.
	Autoscale *AutoscaleConfig

	// Faults injects a deterministic schedule of GPU failures (crash,
	// crash-and-replace, transient stall) into the run — the unplanned
	// counterpart of §5.1's planned drain-and-release. nil injects
	// nothing.
	Faults *FaultPlan

	// Disagg splits the fleet into prefill and decode pools
	// (prefill/decode disaggregation). nil runs every GPU unified — the
	// paper's §5 deployment, bit-identical to the pre-disaggregation
	// simulator.
	Disagg *DisaggConfig

	// Policy selects the placement policy by name: "" or "paper"
	// preserves §5.1 exactly; "affinity" and "rank" trade it for
	// adapter locality and SGMV rank grouping (see internal/sched).
	Policy string
	// Fairness enables the scheduler's per-tenant VTC admission layer
	// (sched.SetFairness). Orthogonal to Policy — it reorders who gets
	// freed capacity, not where requests land. Off (the default) keeps
	// every legacy trace byte-identical.
	Fairness bool
	// AdapterRank optionally assigns per-adapter LoRA ranks (forwarded
	// to every engine and to rank-aware policy construction); nil keeps
	// the paper's uniform Engine.Rank.
	AdapterRank func(lora.ModelID) int

	// Tiers places the staging hierarchy (node SSD, host RAM, …)
	// between the adapter registry and every GPU's HBM store (forwarded
	// to Engine.Tiers). Empty keeps the flat single-link adapter path.
	Tiers []lora.TierSpec
	// Overlap enables the scheduler's CaraServe-style prefetch: a
	// stalled queue head's adapter stages on its best-ranked candidate
	// while running requests compute (sched.Scheduler.OverlapPrefetch).
	Overlap bool
	// PreDist enables the predictive pre-distribution daemon: a
	// periodic tick that promotes the adapters the popularity signals
	// say are about to get hot into host RAM ahead of demand, within a
	// per-tick byte budget. Requires Tiers; nil disables.
	PreDist *PreDistConfig
}

// Result aggregates a run.
type Result struct {
	// Makespan is the completion time of the last request.
	Makespan time.Duration
	// DecodeTokens counts generated tokens; PrefillTokens counts prompt
	// tokens processed (including recomputation after migration).
	DecodeTokens  int64
	PrefillTokens int64
	// Throughput is generated tokens per second over the makespan — the
	// Fig. 11/12 metric.
	Throughput float64
	Finished   int64
	Migrations int64
	Evictions  int64
	// WastedDecodes counts static-batch slots burned for finished
	// requests (Fig. 6).
	WastedDecodes int64

	// Latency distributions over finished requests (seconds).
	TimeToFirstToken metrics.Histogram
	EndToEnd         metrics.Histogram
	PerTokenLatency  metrics.Histogram

	// Series for the Fig. 13 panels.
	ArrivalSeries   metrics.TimeSeries   // weight 1 per arrival
	ProcessedSeries metrics.TimeSeries   // prefill+decode tokens at step end
	BatchSeries     []metrics.TimeSeries // per-GPU invocation batch size

	// GPUBusyFraction is each engine's busy time over the makespan.
	GPUBusyFraction []float64
	QueuePeak       int

	// GPURoles names each engine's disaggregation role, aligned with
	// GPUBusyFraction — per-GPU utilization is unreadable across a split
	// fleet without knowing which pool each GPU serves.
	GPURoles []string
	// PrefillUtil and DecodeUtil are the mean busy fractions of the
	// prefill-capable and decode-capable GPUs respectively (derived from
	// core.Stats.BusyTime over the makespan; unified GPUs count toward
	// both, so a unified run reports the same number twice). Pool
	// imbalance — an idle decode pool behind a saturated prefill pool —
	// is invisible without them.
	PrefillUtil float64
	DecodeUtil  float64

	// InterTokenLatency is the distribution of gaps between consecutive
	// tokens of the same request (seconds) — the decode-side latency that
	// head-of-line blocking by long prefills inflates, and the metric
	// disaggregation exists to protect. The first token of each request
	// anchors its gap chain (TTFT is tracked separately).
	InterTokenLatency metrics.Histogram

	// KV-migration outcomes (prefill/decode disaggregation).
	//
	// KVMigrations counts prefill→decode handoffs that moved a request's
	// KvCache without recomputation; KVMigratedBytes their total
	// payload; KVMigrationFallbacks handoffs that found no decode room
	// and stayed on (or requeued from) their prefill GPU.
	// AdapterPrefetches counts decode-target adapter loads overlapped
	// with prefill.
	KVMigrations         int64
	KVMigratedBytes      int64
	KVMigrationFallbacks int64
	AdapterPrefetches    int64

	// AdapterStalls counts placements deferred because a GPU's adapter
	// store was full with every adapter pinned (§5.2 backpressure): the
	// request waited on the queue instead of crashing the runner.
	AdapterStalls int64
	// AdapterEvictions counts warm adapters evicted from GPU stores to
	// make room for newly requested ones (LRU, §5.2).
	AdapterEvictions int64

	// Fault-injection outcomes (Config.Faults / FailGPU).
	//
	// GPUFailures counts crashed GPUs, GPUReplacements the fresh GPUs
	// attached for crash-and-replace events, and GPUStalls the transient
	// pauses injected. FaultsSkipped counts events that were downgraded
	// or dropped because they would have killed the last alive GPU.
	GPUFailures     int64
	GPUReplacements int64
	GPUStalls       int64
	FaultsSkipped   int64
	// RecoveredRequests counts requests that lost their GPU mid-flight
	// and were re-dispatched FCFS with prefill recomputation;
	// RecomputedPrefillTokens is the KvCache context those crashes
	// destroyed (the recomputation bill). RecoveryLatency measures
	// failure→re-placement time per recovered request.
	RecoveredRequests       int64
	RecomputedPrefillTokens int64
	RecoveryLatency         metrics.Histogram

	// Cell-sharded run outcomes (CellsConfig / NewMulti). All zero for
	// single-cell runs.
	//
	// Cells and Workers record the shard count and goroutine budget;
	// Epochs the barriers crossed; BarrierStalls the total number of
	// (cell, epoch) pairs where a cell executed nothing while the fleet
	// had work (load-imbalance meter); Spills the requests handed
	// between cells at barriers. QueuePeak is the deepest any single
	// cell's queue has been (queues are per-cell).
	Cells         int
	Workers       int
	Epochs        int64
	BarrierStalls int64
	Spills        int64
	// FleetQueueSeries samples the fleet-wide queued-request total at
	// every barrier — the aggregated metric cells exchange; its last
	// sample is always zero (the run ends with empty queues).
	FleetQueueSeries metrics.TimeSeries
	// ScaleSignalBarriers counts barriers at which every cell reported
	// §5.1 scale-up pressure (no lightly-loaded GPU anywhere) — the
	// fleet-level autoscale signal aggregated at the barrier.
	ScaleSignalBarriers int64

	// Per-tenant outcomes for traffic-engine traces (requests with
	// Tenant != 0), sorted by tenant id. Untagged legacy traces leave
	// this nil and the two indices zero.
	Tenants []TenantOutcome
	// StallSkew is max/median per-tenant AdapterStalls — the headline
	// fairness metric: a hot tenant monopolizing adapter-store capacity
	// shows up as tail tenants stalling far more than the median.
	StallSkew float64
	// JainFairness is Jain's index over per-tenant decode-token
	// throughput: 1.0 is perfectly even, 1/n is one tenant taking
	// everything.
	JainFairness float64

	// Tiered-adapter-path outcomes (Config.Tiers). All zero/empty for
	// flat-store runs.
	//
	// TierStats aggregates per-tier hit/miss/promotion/demotion
	// counters across the fleet, bottom tier first, ending with the
	// synthetic "hbm" row. ColdStart is the distribution of adapter
	// load completions relative to request admission (seconds), one
	// sample per HBM-missing Acquire — staged registry/SSD/RAM hops
	// included, so long-tail cold starts are priced honestly.
	// PreDistBytes and PreDistPromotions account the pre-distribution
	// daemon's work.
	TierStats         []lora.TierStats
	ColdStart         metrics.Histogram
	PreDistBytes      int64
	PreDistPromotions int64
}

// TenantOutcome aggregates one tenant's service over a run.
type TenantOutcome struct {
	Tenant        int64
	Finished      int64
	DecodeTokens  int64
	AdapterStalls int64
	// EndToEnd is the tenant's end-to-end latency distribution
	// (seconds) — per-tenant p50/p99 come from here.
	EndToEnd metrics.Histogram
}

// Cluster wires engines, scheduler and virtual clock together.
type Cluster struct {
	cfg   Config
	clock *sim.VirtualClock
	sched *sched.Scheduler
	gpus  []*runner
	byGPU map[*sched.GPU]*runner

	res Result
	// gap and gapRun hold the current run of equal token gaps, not yet
	// added to InterTokenLatency (noteToken, flushGaps).
	gap    time.Duration
	gapRun int
	// predistBuf is the pre-distribution daemon's reusable prediction
	// list (predistTick).
	predistBuf []lora.ModelID
	scale      *autoscaler
	runErr     error

	// The trace streams in: trace[order[next]] is the one arrival event
	// pending on the clock, in reserved position firstSeq+index, and
	// arrive is its handler, bound once (start, scheduleArrival).
	trace    []workload.Request
	order    []int32
	next     int
	firstSeq int64
	arrive   func()

	// recovering maps request ID → crash time for requests awaiting
	// re-placement after their GPU failed (feeds RecoveryLatency).
	recovering map[int64]time.Duration
	// tenants accumulates per-tenant outcomes for tagged requests
	// (Tenant != 0); sorted into Result.Tenants at finalize.
	tenants map[int64]*TenantOutcome
}

// noteToken records the gap to the request's previous token. Tokens
// carry the simulated time since that token, so gaps measure exactly
// what a streaming user would see — including prefill head-of-line
// stalls and migration handoffs between pools.
//
// The continuing rows of one decode step share a gap, so gaps come in
// runs of equal values; noteToken counts the run and flushGaps adds it
// in one insert.
func (c *Cluster) noteToken(tok core.Token) {
	if tok.Gap <= 0 {
		return
	}
	if tok.Gap != c.gap {
		c.flushGaps()
		c.gap = tok.Gap
	}
	c.gapRun++
}

// flushGaps adds the pending run of equal gaps to InterTokenLatency.
// The histogram comes out bit-identical to adding each gap as it came:
// runs flush in order, and an n-sample insert sums its value n times.
func (c *Cluster) flushGaps() {
	if c.gapRun > 0 {
		c.res.InterTokenLatency.AddN(c.gap.Seconds(), c.gapRun)
	}
	c.gap, c.gapRun = 0, 0
}

type runner struct {
	gpu           *sched.GPU
	eng           *core.Engine
	index         int
	role          core.Role
	stepInFlight  bool
	wakeScheduled bool
	cluster       *Cluster

	// crashed marks a dead GPU (it never steps again); crashPending
	// defers a crash that arrived mid-step to the invocation boundary.
	// stalledUntil pauses stepping without losing state.
	crashed      bool
	crashPending *FaultEvent
	stalledUntil time.Duration

	// inflight is the result of the step in flight (set while
	// stepInFlight), and done its completion event, bound once so that
	// scheduling a step's end allocates nothing.
	inflight core.StepResult
	done     func()
}

// newRunner wraps a GPU's engine for the event loop.
func (c *Cluster) newRunner(g *sched.GPU, eng *core.Engine, index int) *runner {
	r := &runner{gpu: g, eng: eng, index: index, role: g.Role, cluster: c}
	r.done = r.complete
	return r
}

// New builds a cluster of cfg.NumGPUs engines. UUIDs are "gpu-00",
// "gpu-01", ... so the §5.1 tie-break (highest UUID) is deterministic.
// With Disagg set, the first PrefillGPUs engines form the prefill pool
// and the rest the decode pool.
func New(cfg Config) *Cluster {
	if cfg.Disagg != nil {
		d := cfg.Disagg.validate()
		cfg.Disagg = &d
		if cfg.NumGPUs == 0 {
			cfg.NumGPUs = d.PrefillGPUs + d.DecodeGPUs
		}
		if cfg.NumGPUs != d.PrefillGPUs+d.DecodeGPUs {
			panic(fmt.Sprintf("cluster: NumGPUs %d != prefill %d + decode %d",
				cfg.NumGPUs, d.PrefillGPUs, d.DecodeGPUs))
		}
	}
	if cfg.NumGPUs <= 0 {
		panic("cluster: need at least one GPU")
	}
	c := &Cluster{
		cfg:        cfg,
		clock:      sim.NewVirtualClock(),
		byGPU:      make(map[*sched.GPU]*runner),
		recovering: make(map[int64]time.Duration),
		tenants:    make(map[int64]*TenantOutcome),
	}
	var gpus []*sched.GPU
	for i := 0; i < cfg.NumGPUs; i++ {
		ec := cfg.Engine
		ec.OnToken = c.noteToken
		ec.OnFinish = nil
		ec.AdapterRank = cfg.AdapterRank
		ec.Tiers = cfg.Tiers
		ec.Role = cfg.roleOf(i)
		eng := core.NewEngine(ec)
		g := &sched.GPU{UUID: fmt.Sprintf("gpu-%02d", i), Engine: eng, Role: ec.Role}
		gpus = append(gpus, g)
		r := c.newRunner(g, eng, i)
		c.gpus = append(c.gpus, r)
		c.byGPU[g] = r
	}
	policy, err := sched.PolicyByName(cfg.Policy, sched.PolicyConfig{
		Base:        cfg.Engine.Model,
		DefaultRank: cfg.Engine.Rank,
		RankOf:      cfg.AdapterRank,
	})
	if err != nil {
		panic("cluster: " + err.Error())
	}
	c.sched = sched.NewWithPolicy(gpus, policy)
	c.sched.SetFairness(cfg.Fairness)
	c.sched.OverlapPrefetch = cfg.Overlap
	c.res.BatchSeries = make([]metrics.TimeSeries, cfg.NumGPUs)
	if cfg.Autoscale != nil {
		c.setupAutoscale(*cfg.Autoscale)
	}
	return c
}

// Scheduler exposes the scheduler (for tests and scale-hint inspection).
func (c *Cluster) Scheduler() *sched.Scheduler { return c.sched }

// Clock exposes the virtual clock.
func (c *Cluster) Clock() *sim.VirtualClock { return c.clock }

// fail records the first hard error of a run; the discrete-event loop
// keeps draining so Run can report it cleanly instead of panicking.
func (c *Cluster) fail(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
}

// Run executes the trace to completion and returns the aggregated result.
func (c *Cluster) Run(reqs []workload.Request) (*Result, error) {
	c.start(reqs)
	c.clock.RunAll()
	return c.finalize()
}

// start schedules the trace's arrivals plus the periodic machinery
// (consolidation, autoscaling, fault injection) on the virtual clock
// without running anything. Cell-sharded runs start every cell and then
// drive all clocks together under the epoch-barrier executor; Run is
// the single-cell composition start → RunAll → finalize.
//
// Arrivals stream: one is pending on the clock at a time, and each
// schedules the next as it fires. They run in order of arrival time
// (clamped to the start time, as Schedule clamps), then trace index,
// each in a clock position reserved here, so every arrival fires at the
// same (time, position) as if all were scheduled up front.
func (c *Cluster) start(reqs []workload.Request) {
	c.trace = reqs
	c.order = arrivalOrder(reqs, c.clock.Now())
	c.firstSeq = c.clock.Reserve(len(reqs))
	c.arrive = c.arrival
	c.scheduleArrival()
	if c.cfg.MigrationInterval > 0 {
		c.clock.Schedule(c.cfg.MigrationInterval, c.migrationTick)
	}
	if c.scale != nil {
		c.clock.Schedule(c.scale.cfg.CheckInterval, c.scale.tick)
	}
	if c.cfg.Faults != nil {
		c.scheduleFaults(c.cfg.Faults)
	}
	if c.cfg.PreDist != nil && len(c.cfg.Tiers) > 0 {
		// First tick at t=0: the daemon warms the fleet at deployment
		// time, before the first arrival, so the initial hot set is not
		// charged a full registry cascade.
		c.clock.Schedule(0, c.predistTick)
	}
}

// arrivalOrder returns the trace's indices sorted by max(Arrival, from),
// then index.
func arrivalOrder(reqs []workload.Request, from time.Duration) []int32 {
	order := make([]int32, len(reqs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(max(reqs[a].Arrival, from), max(reqs[b].Arrival, from))
	})
	return order
}

// arrivalsLeft counts the trace's arrivals that have not fired yet.
func (c *Cluster) arrivalsLeft() int { return len(c.order) - c.next }

// scheduleArrival puts the next arrival, if any, on the clock.
func (c *Cluster) scheduleArrival() {
	if c.arrivalsLeft() == 0 {
		return
	}
	i := c.order[c.next]
	c.clock.ScheduleReserved(c.trace[i].Arrival, c.firstSeq+int64(i), c.arrive)
}

// arrival dispatches the pending arrival and schedules the one after it.
func (c *Cluster) arrival() {
	wr := &c.trace[c.order[c.next]]
	c.next++
	c.scheduleArrival()
	c.res.ArrivalSeries.Add(c.clock.Now(), 1)
	r := &core.Request{
		ID:        wr.ID,
		Model:     lora.ModelID(wr.Model),
		PromptLen: wr.PromptLen,
		OutputLen: wr.OutputLen,
		Arrival:   wr.Arrival,
		Tenant:    wr.Tenant,
	}
	g, err := c.sched.Dispatch(r, c.clock.Now())
	if err != nil {
		c.fail(err)
		return
	}
	if g != nil {
		c.runnerOf(g).kick()
	}
}

// finalize aggregates engine statistics into the Result, enforces the
// end-of-run leak invariants (pinned adapter bytes, KvCache pages,
// unfinished work), and returns the result or the run's first error.
func (c *Cluster) finalize() (*Result, error) {
	c.flushGaps()
	if c.runErr != nil {
		return nil, c.runErr
	}

	var prefillBusy, decodeBusy []float64
	for _, r := range c.gpus {
		st := r.eng.Stats()
		c.res.DecodeTokens += st.TokensGenerated
		c.res.PrefillTokens += st.PrefillTokens
		c.res.WastedDecodes += st.WastedDecodes
		c.res.Evictions += st.Evictions
		c.res.Finished += st.Finished
		if store := r.eng.Store(); store != nil {
			c.res.AdapterEvictions += store.Evictions
			if store.PinnedBytes() != 0 {
				return nil, fmt.Errorf("cluster: gpu %s leaked %d pinned adapter bytes",
					r.gpu.UUID, store.PinnedBytes())
			}
		}
		if tiers := r.eng.Tiers(); tiers != nil {
			c.res.TierStats = lora.MergeTierStats(c.res.TierStats, tiers.Stats())
			c.res.ColdStart.Merge(tiers.ColdStarts())
		}
		if kv := r.eng.KV(); kv.UsedPages() != 0 || kv.Sequences() != 0 {
			return nil, fmt.Errorf("cluster: gpu %s leaked %d KvCache pages (%d sequences) at quiescence",
				r.gpu.UUID, kv.UsedPages(), kv.Sequences())
		}
		util := st.Utilization(c.res.Makespan)
		c.res.GPUBusyFraction = append(c.res.GPUBusyFraction, util)
		c.res.GPURoles = append(c.res.GPURoles, r.role.String())
		if prefillCapable(r.role) {
			prefillBusy = append(prefillBusy, util)
		}
		if r.role == core.RoleDecode || r.role == core.RoleUnified {
			decodeBusy = append(decodeBusy, util)
		}
	}
	c.res.PrefillUtil = mean(prefillBusy)
	c.res.DecodeUtil = mean(decodeBusy)
	// The scheduler observes every queue-growth site — arrival overflow,
	// eviction reschedules, fault-recovery requeues, migration fallbacks
	// — where the old arrival-closure sampling missed requeue spikes.
	c.res.QueuePeak = c.sched.QueuePeak()
	c.res.Migrations = c.sched.Stats().Migrations
	c.res.AdapterStalls = c.sched.Stats().AdapterStalls
	c.res.Tenants = c.collectTenants()
	summarizeTenants(&c.res)
	// Inbound spills: summed across cells this counts every cross-cell
	// handoff exactly once (each steal is delivered to exactly one cell).
	c.res.Spills = c.sched.Stats().SpillsIn
	c.res.KVMigrations = c.sched.Stats().KVMigrations
	c.res.KVMigratedBytes = c.sched.Stats().KVMigratedBytes
	c.res.KVMigrationFallbacks = c.sched.Stats().KVMigrationFallbacks
	c.res.AdapterPrefetches = c.sched.Stats().AdapterPrefetches
	if c.res.Makespan > 0 {
		c.res.Throughput = float64(c.res.DecodeTokens) / c.res.Makespan.Seconds()
	}
	if c.sched.QueueLen() > 0 || c.anyBusy() {
		return nil, fmt.Errorf("cluster: run ended with unfinished work (queue=%d)", c.sched.QueueLen())
	}
	return &c.res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (c *Cluster) runnerOf(g *sched.GPU) *runner {
	if r, ok := c.byGPU[g]; ok {
		return r
	}
	panic("cluster: unknown GPU")
}

func (c *Cluster) anyBusy() bool {
	for _, r := range c.gpus {
		if r.eng.Busy() || r.stepInFlight {
			return true
		}
	}
	return false
}

func (c *Cluster) migrationTick() {
	moved := c.sched.Consolidate(c.clock.Now())
	if moved > 0 {
		for _, r := range c.gpus {
			if r.crashed {
				continue
			}
			// A drained GPU goes idle: record the zero so the batch
			// series reflects the consolidation.
			if !r.eng.Busy() && !r.stepInFlight {
				c.res.BatchSeries[r.index].Add(c.clock.Now(), 0)
			}
			r.kick()
		}
	}
	if c.arrivalsLeft() > 0 || c.anyBusy() || c.sched.QueueLen() > 0 {
		c.clock.ScheduleAfter(c.cfg.MigrationInterval, c.migrationTick)
	}
}

// kick starts a step on the runner's engine if one is not already in
// flight. GPUs run "batches on a GPU back-to-back" (§8). Crashed
// runners never step again; stalled runners resume at the wake the
// stall scheduled.
func (r *runner) kick() {
	if r.stepInFlight || r.crashed {
		return
	}
	e := r.eng
	if !e.Busy() {
		return
	}
	now := r.cluster.clock.Now()
	if now < r.stalledUntil {
		return // stallGPU scheduled a kick at stall end
	}
	res := e.Step(now)
	if res.Idle {
		// An idle step can still evict (KV pressure can drain the whole
		// batch): handleEvicted copies the scratch-backed slice before
		// dispatching, and a reschedule cascade may have already started
		// this GPU's next step — in which case the in-flight invocation
		// owns the engine and this frame must not touch it further.
		r.handleEvicted(res.Evicted)
		if r.stepInFlight {
			return
		}
		if wake, ok := e.EarliestPendingReady(); ok && wake > now {
			if !r.wakeScheduled {
				r.wakeScheduled = true
				r.cluster.clock.Schedule(wake, func() {
					r.wakeScheduled = false
					r.kick()
				})
			}
			return
		}
		if e.Busy() {
			panic("cluster: engine idle with work but no wake-up time")
		}
		return
	}
	// Mark the step in flight BEFORE rescheduling evictions: a reschedule
	// can cascade through other runners' steps and land new work back on
	// this GPU, and the cascaded kick must not re-enter Step while
	// res.Evicted — which aliases this engine's reusable scratch — is
	// still being iterated. The in-flight flag makes the cascaded kick a
	// no-op; complete() kicks again when this invocation ends.
	r.stepInFlight = true
	r.inflight = res //punica:retains-copy stepInFlight blocks re-entry into Step until complete() runs
	r.handleEvicted(res.Evicted)
	r.cluster.res.BatchSeries[r.index].Add(now, float64(res.BatchSize))
	r.cluster.clock.Schedule(res.EndsAt, r.done)
}

// complete finishes the in-flight step: records metrics, re-schedules
// evictions, drains the global queue into freed capacity, and
// immediately starts the next step.
func (r *runner) complete() {
	c := r.cluster
	now := c.clock.Now()
	// A copy: once stepInFlight clears, a cascade below may kick this
	// runner again and overwrite inflight.
	res := r.inflight
	r.stepInFlight = false

	c.res.ProcessedSeries.Add(now, float64(res.TokensGenerated+res.PrefillTokens))
	for _, f := range res.Finished {
		if f.FinishedAt > c.res.Makespan {
			c.res.Makespan = f.FinishedAt
		}
		c.res.TimeToFirstToken.AddDuration(f.FirstTokenAt - f.Arrival)
		c.res.EndToEnd.AddDuration(f.FinishedAt - f.Arrival)
		if f.Tenant != 0 {
			ta := c.tenants[f.Tenant]
			if ta == nil {
				ta = &TenantOutcome{Tenant: f.Tenant}
				c.tenants[f.Tenant] = ta
			}
			ta.Finished++
			ta.DecodeTokens += int64(f.OutputLen)
			ta.EndToEnd.AddDuration(f.FinishedAt - f.Arrival)
		}
		if f.OutputLen > 1 {
			per := (f.FinishedAt - f.FirstTokenAt) / time.Duration(f.OutputLen-1)
			c.res.PerTokenLatency.AddDuration(per)
		}
	}
	if r.crashPending != nil {
		// The fault landed mid-step: this boundary is where the GPU
		// actually dies. Metrics for the final invocation are recorded
		// above; everything still resident is recovered in doCrash.
		ev := *r.crashPending
		r.crashPending = nil
		c.doCrash(r, ev)
		return
	}
	if r.role == core.RolePrefill {
		// Step boundary on the prefill pool: hand finished prefills to
		// the decode pool by moving their KvCache. Requests that find no
		// decode room stay here (still decoding) and are offered again
		// at the next boundary.
		dsts, err := c.sched.MigratePrefilled(r.gpu, now)
		if err != nil {
			c.fail(fmt.Errorf("cluster: migrate prefilled off %s: %w", r.gpu.UUID, err))
			return
		}
		for _, d := range dsts {
			c.runnerOf(d).kick()
		}
		if len(dsts) > 0 {
			// Handoffs freed prefill capacity: the queue may advance.
			placed, err := c.sched.DrainQueue(now)
			if err != nil {
				c.fail(fmt.Errorf("cluster: drain after migration: %w", err))
				return
			}
			c.notePlacements(placed)
		}
	}
	if len(res.Finished) > 0 || len(res.Evicted) > 0 {
		placed, err := c.sched.DrainQueue(now)
		if err != nil {
			c.fail(fmt.Errorf("cluster: drain queue: %w", err))
			return
		}
		c.notePlacements(placed)
	}
	if !r.eng.Busy() {
		c.res.BatchSeries[r.index].Add(now, 0)
	}
	r.kick()
}

func (r *runner) handleEvicted(evicted []*core.Request) {
	if len(evicted) == 0 {
		return
	}
	// The slice aliases the engine's reusable eviction scratch, and
	// rescheduling can cascade through other runners' steps back into a
	// Step on this engine (which rewrites that scratch). Dispatch from a
	// private copy; evictions are rare, so the allocation is off the hot
	// path.
	evicted = append([]*core.Request(nil), evicted...)
	c := r.cluster
	now := c.clock.Now()
	for _, ev := range evicted {
		g, err := c.sched.Reschedule(ev, r.gpu, now)
		if err != nil {
			c.fail(fmt.Errorf("cluster: reschedule evicted: %w", err))
			return
		}
		if g != nil {
			c.runnerOf(g).kick()
		}
	}
}
