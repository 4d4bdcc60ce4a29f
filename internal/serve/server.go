// Package serve is the online serving stack of Fig. 2: frontends accept
// user requests over HTTP, the scheduler dispatches them to GPU runners,
// and generated tokens stream back to the client as they are produced.
//
// Substitution note (DESIGN.md): the paper implements the scheduler,
// frontend and runner in Rust with WebSockets; here they are Go
// goroutines around the same engine and scheduler logic, with chunked
// NDJSON streaming. GPU time is simulated: each invocation's modelled
// latency is converted to wall time through a configurable speedup
// factor, so the demo serves tokens at a realistic (or accelerated)
// cadence without hardware.
package serve

import (
	"fmt"
	"sync"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/metrics"
	"punica/internal/sched"
)

// Config assembles a serving deployment.
type Config struct {
	// NumGPUs is the number of simulated GPU runners.
	NumGPUs int
	// Engine is the per-GPU engine template.
	Engine core.Config
	// Speedup divides simulated latencies to produce wall-clock pacing:
	// 1 serves in real time, 100 (default) runs 100x faster.
	Speedup float64
	// Policy selects the placement policy by name ("" or "paper",
	// "affinity", "rank" — see internal/sched).
	Policy string
	// Fairness enables the scheduler's per-tenant VTC admission layer:
	// under contention, queued requests dispatch weighted-round-robin
	// across tenants instead of globally FCFS (see internal/sched
	// fair.go). Requests without a tenant tag share one bucket.
	Fairness bool

	// Admission bounds the scheduler's wait queue (overload protection):
	// arrivals over the caps are refused — HTTP 429 with a Retry-After
	// derived from the measured drain rate — or, under
	// sched.ShedBestEffort, admitted by shedding the lowest-priority
	// queued request. The zero config (the default) disables every cap
	// and keeps the legacy unbounded-queue behaviour byte-identical.
	Admission sched.AdmissionConfig

	// Tiers, when non-empty, backs every GPU's adapter store with the
	// staged node-SSD → host-RAM hierarchy (lora.TieredStore): HBM
	// misses cascade down the tiers instead of always paying a full
	// registry pull, and HBM evictions demote to host RAM. Parse CLI
	// syntax with lora.ParseTierSpec.
	Tiers []lora.TierSpec

	// PrefillGPUs/DecodeGPUs, when both > 0, disaggregate the server:
	// the fleet splits into a prefill pool (admits new requests) and a
	// decode pool (receives finished prefills by KV migration), and
	// NumGPUs is derived as their sum. Zero values keep the unified
	// paper deployment.
	PrefillGPUs int
	DecodeGPUs  int
}

// Server runs the scheduler and GPU drivers and routes token streams.
type Server struct {
	mu      sync.Mutex
	cond    *sync.Cond
	sch     *sched.Scheduler
	gpus    []*sched.GPU
	engines map[*sched.GPU]*core.Engine
	streams map[int64]chan core.Token
	nextID  int64
	// pace is the deployment's clock; each GPU driver paces its steps
	// on its own copy.
	pace   Pacer
	closed bool
	wg     sync.WaitGroup

	// Fault accounting (FailGPU).
	failures  int64
	recovered int64

	// shed marks request ids dropped by the ShedBestEffort admission
	// policy between the scheduler callback and the HTTP handler
	// observing the closed stream, so the handler can answer 429 rather
	// than a generic failure. Entries are consumed by WasShed.
	shed map[int64]bool
	// rejected429 counts HTTP 429 responses sent by the generate
	// endpoint (both queue-full rejections and shed victims).
	rejected429 int64
}

// New builds and starts a server: one driver goroutine per GPU. With
// PrefillGPUs/DecodeGPUs set, the first engines form the prefill pool
// and the rest the decode pool; finished prefills migrate between them
// at step boundaries by moving their KvCache.
func New(cfg Config) *Server {
	disagg := cfg.PrefillGPUs > 0 && cfg.DecodeGPUs > 0
	if disagg {
		cfg.NumGPUs = cfg.PrefillGPUs + cfg.DecodeGPUs
	}
	if cfg.NumGPUs <= 0 {
		cfg.NumGPUs = 1
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 100
	}
	s := &Server{
		engines: make(map[*sched.GPU]*core.Engine),
		streams: make(map[int64]chan core.Token),
		shed:    make(map[int64]bool),
		pace:    NewPacer(cfg.Speedup),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.NumGPUs; i++ {
		ec := cfg.Engine
		ec.OnToken = s.onToken
		ec.OnFinish = s.onFinish
		ec.Tiers = cfg.Tiers
		if disagg {
			if i < cfg.PrefillGPUs {
				ec.Role = core.RolePrefill
			} else {
				ec.Role = core.RoleDecode
			}
		}
		eng := core.NewEngine(ec)
		g := &sched.GPU{UUID: fmt.Sprintf("gpu-%02d", i), Engine: eng, Role: ec.Role}
		s.engines[g] = eng
		s.gpus = append(s.gpus, g)
	}
	policy, err := sched.PolicyByName(cfg.Policy, sched.PolicyConfig{
		Base:        cfg.Engine.Model,
		DefaultRank: cfg.Engine.Rank,
		RankOf:      cfg.Engine.AdapterRank,
	})
	if err != nil {
		panic("serve: " + err.Error())
	}
	s.sch = sched.NewWithPolicy(s.gpus, policy)
	s.sch.SetFairness(cfg.Fairness)
	s.sch.SetAdmission(cfg.Admission)
	s.sch.OnShed = s.onShed
	for _, g := range s.gpus {
		s.wg.Add(1)
		go s.drive(g, s.pace)
	}
	return s
}

// onToken runs inside Engine.Step with s.mu held.
func (s *Server) onToken(tok core.Token) {
	if ch, ok := s.streams[tok.RequestID]; ok {
		select {
		case ch <- tok:
		default: // stream buffer full: client abandoned; drop.
		}
	}
}

// onFinish runs inside Engine.Step with s.mu held.
func (s *Server) onFinish(r *core.Request) {
	if ch, ok := s.streams[r.ID]; ok {
		close(ch)
		delete(s.streams, r.ID)
	}
}

// onShed runs inside Scheduler.Dispatch with s.mu held: the admission
// layer dropped a queued request to admit a higher-priority arrival.
// Closing the victim's stream wakes its HTTP handler, which consults
// WasShed to answer 429 instead of a truncated 200.
func (s *Server) onShed(r *core.Request) {
	s.shed[r.ID] = true
	if ch, ok := s.streams[r.ID]; ok {
		close(ch)
		delete(s.streams, r.ID)
	}
}

// WasShed reports (and consumes) whether request id was dropped by the
// admission layer's shed policy.
func (s *Server) WasShed(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := s.shed[id]
	delete(s.shed, id)
	return was
}

// RetryAfter estimates, in wall time, when a rejected client should
// retry: the simulated time the current drain rate needs to free one
// queue slot, converted through the speedup factor and clamped to
// [1s, 120s] — HTTP Retry-After has whole-second resolution and callers
// should not be parked forever on a transient spike.
func (s *Server) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked()
}

func (s *Server) retryAfterLocked() time.Duration {
	w := s.pace.WallDelay(s.sch.RetryAfterHint(1))
	if w < time.Second {
		w = time.Second
	}
	if w > 120*time.Second {
		w = 120 * time.Second
	}
	return w
}

// Submit enqueues a generation request and returns its id and token
// stream. The stream is closed when generation completes or the request
// is cancelled.
func (s *Server) Submit(model int64, promptLen, outputLen int) (int64, <-chan core.Token, error) {
	return s.SubmitTenant(model, 0, promptLen, outputLen)
}

// SubmitTenant is Submit with a tenant tag: under Config.Fairness the
// scheduler's VTC layer keys admission fairness on it. Tenant 0 is
// untagged (all untagged requests share one fairness bucket).
func (s *Server) SubmitTenant(model, tenant int64, promptLen, outputLen int) (int64, <-chan core.Token, error) {
	if promptLen <= 0 || outputLen <= 0 {
		return 0, nil, fmt.Errorf("serve: prompt and output lengths must be positive")
	}
	if tenant < 0 {
		return 0, nil, fmt.Errorf("serve: tenant id must be non-negative")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, fmt.Errorf("serve: server closed")
	}
	s.nextID++
	id := s.nextID
	ch := make(chan core.Token, outputLen+1)
	s.streams[id] = ch
	now := s.pace.SimNow()
	r := &core.Request{
		ID:        id,
		Model:     lora.ModelID(model),
		PromptLen: promptLen,
		OutputLen: outputLen,
		Arrival:   now,
		Tenant:    tenant,
	}
	if _, err := s.sch.Dispatch(r, now); err != nil {
		delete(s.streams, id)
		return 0, nil, err
	}
	s.cond.Broadcast()
	return id, ch, nil
}

// FailGPU kills one in-process GPU by UUID: its engine drops all
// resident state (KvCache, adapter pins) and every lost request is
// requeued FCFS onto the survivors with prefill recomputation. Because
// the same *core.Request objects recover in-process, Generated carries
// over and open token streams resume seamlessly where they left off.
// It reports whether the GPU existed and was alive.
func (s *Server) FailGPU(uuid string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.pace.SimNow()
	g, lost, _, ok := s.sch.FailGPU(uuid, now)
	if !ok {
		return false
	}
	s.failures++
	for i, got := range s.gpus {
		if got == g {
			s.gpus = append(s.gpus[:i], s.gpus[i+1:]...)
			break
		}
	}
	for _, r := range lost {
		s.recovered++
		if _, err := s.sch.Requeue(r, now); err != nil {
			s.dropRequest(r.ID)
		}
	}
	s.cond.Broadcast()
	return true
}

// Cancel aborts a request (e.g. the client disconnected, §5.3) and closes
// its stream. It reports whether the request was found.
func (s *Server) Cancel(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.pace.SimNow()
	found := false
	for _, g := range s.gpus {
		if g.Engine.Cancel(id, now) != nil {
			found = true
			break
		}
	}
	if ch, ok := s.streams[id]; ok {
		close(ch)
		delete(s.streams, id)
		found = true
	}
	if found {
		// The cancel freed batch/KvCache room: give it to the queue now.
		// Without this, a fleet whose drivers are all parked in cond.Wait
		// (engines idle) strands queued requests until the next finish.
		if _, err := s.sch.DrainQueue(now); err == nil {
			s.cond.Broadcast()
		}
	}
	return found
}

// GPUState is one runner's snapshot for the stats endpoint.
type GPUState struct {
	UUID         string `json:"uuid"`
	Role         string `json:"role"`
	WorkingSet   int    `json:"working_set"`
	ActiveBatch  int    `json:"active_batch"`
	FreeKVPages  int    `json:"free_kv_pages"`
	TotalKVPages int    `json:"total_kv_pages"`
	Adapters     int    `json:"resident_adapters"`
	Steps        int64  `json:"steps"`
	Tokens       int64  `json:"tokens_generated"`
}

// Stats is the cluster snapshot.
type Stats struct {
	GPUs       []GPUState `json:"gpus"`
	QueueLen   int        `json:"queue_len"`
	Streams    int        `json:"open_streams"`
	SimTime    float64    `json:"sim_time_seconds"`
	NeedMore   bool       `json:"need_more_gpus"`
	Releasable int        `json:"releasable_gpus"`
	// GPUFailures counts FailGPU kills; Recovered the requests requeued
	// off dead GPUs.
	GPUFailures int64 `json:"gpu_failures"`
	Recovered   int64 `json:"recovered_requests"`
	// KVMigrations counts prefill→decode KvCache handoffs;
	// AdapterPrefetches the decode-target warm-ups overlapped with
	// prefill (both zero in unified mode).
	KVMigrations      int64 `json:"kv_migrations"`
	AdapterPrefetches int64 `json:"adapter_prefetches"`
	// Tiers merges the per-GPU staging-tier counters (Config.Tiers);
	// ColdStarts/ColdStartP99 summarise the staged HBM-miss latency they
	// explain. All empty/zero on flat-store deployments.
	Tiers        []lora.TierStats `json:"tiers,omitempty"`
	ColdStarts   int              `json:"cold_starts,omitempty"`
	ColdStartP99 float64          `json:"cold_start_p99_seconds,omitempty"`
	// Overload-protection state (Config.Admission): the deepest the wait
	// queue has been, the measured drain rate feeding Retry-After, and
	// the admission outcome counters.
	QueuePeak      int     `json:"queue_peak"`
	DrainRate      float64 `json:"drain_rate_per_sec,omitempty"`
	Rejected       int64   `json:"admission_rejected,omitempty"`
	TenantRejected int64   `json:"admission_tenant_rejected,omitempty"`
	Shed           int64   `json:"admission_shed,omitempty"`
	HTTP429        int64   `json:"http_429,omitempty"`
}

// Snapshot returns the current cluster state.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cold metrics.Histogram
	st := Stats{
		QueueLen:          s.sch.QueueLen(),
		Streams:           len(s.streams),
		SimTime:           s.pace.SimNow().Seconds(),
		NeedMore:          s.sch.NeedMoreGPUs(),
		Releasable:        len(s.sch.ReleasableGPUs()),
		GPUFailures:       s.failures,
		Recovered:         s.recovered,
		KVMigrations:      s.sch.Stats().KVMigrations,
		AdapterPrefetches: s.sch.Stats().AdapterPrefetches,
		QueuePeak:         s.sch.QueuePeak(),
		DrainRate:         s.sch.DrainRate(),
		Rejected:          s.sch.AdmissionStats().Rejected,
		TenantRejected:    s.sch.AdmissionStats().TenantRejected,
		Shed:              s.sch.AdmissionStats().Shed,
		HTTP429:           s.rejected429,
	}
	for _, g := range s.gpus {
		eng := s.engines[g]
		es := eng.Stats()
		gs := GPUState{
			UUID:         g.UUID,
			Role:         g.Role.String(),
			WorkingSet:   eng.WorkingSet(),
			ActiveBatch:  eng.ActiveBatch(),
			FreeKVPages:  eng.KV().FreePages(),
			TotalKVPages: eng.KV().TotalPages(),
			Steps:        es.Steps,
			Tokens:       es.TokensGenerated,
		}
		if store := eng.Store(); store != nil {
			gs.Adapters = store.Len()
		}
		if tiers := eng.Tiers(); tiers != nil {
			st.Tiers = lora.MergeTierStats(st.Tiers, tiers.Stats())
			cold.Merge(tiers.ColdStarts())
		}
		st.GPUs = append(st.GPUs, gs)
	}
	st.ColdStarts = cold.Count()
	st.ColdStartP99 = cold.Percentile(99)
	return st
}

// Close stops the drivers and closes all open streams.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for id, ch := range s.streams {
		close(ch)
		delete(s.streams, id)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// drive is the per-GPU runner loop: run invocations back-to-back, pace
// them in wall time, and hand scheduler work back after each step.
func (s *Server) drive(g *sched.GPU, pace Pacer) {
	defer s.wg.Done()
	eng := s.engines[g]
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if !eng.Busy() {
			pace.Wait(s.cond)
			continue
		}
		now := pace.SimNow()
		res := eng.Step(now)
		for _, ev := range res.Evicted {
			if _, err := s.sch.Reschedule(ev, g, now); err != nil {
				s.dropRequest(ev.ID)
			}
		}
		if res.Idle {
			wake, ok := eng.EarliestPendingReady()
			if !ok {
				// Nothing loadable; wait for scheduler activity.
				pace.Wait(s.cond)
				continue
			}
			pace.Sleep(&s.mu, wake-now)
			continue
		}
		if g.Role == core.RolePrefill {
			// Step boundary on the prefill pool: hand finished prefills
			// to the decode pool (KvCache moved, not recomputed). The
			// in-process token streams carry over untouched — indices
			// simply continue on the new engine.
			if dsts, err := s.sch.MigratePrefilled(g, pace.SimNow()); err == nil && len(dsts) > 0 {
				s.cond.Broadcast()
			}
		}
		if len(res.Finished) > 0 || len(res.Evicted) > 0 {
			if _, err := s.sch.DrainQueue(pace.SimNow()); err == nil {
				s.cond.Broadcast()
			}
		}
		// Closing the server does not interrupt an in-flight pacing
		// sleep; Close waits for it.
		pace.Step(&s.mu, res.Latency)
	}
}

func (s *Server) dropRequest(id int64) {
	if ch, ok := s.streams[id]; ok {
		close(ch)
		delete(s.streams, id)
	}
}
