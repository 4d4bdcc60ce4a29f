package remote

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/sched"
	"punica/internal/serve"
)

// FrontendOptions configures a frontend beyond the runner URLs.
type FrontendOptions struct {
	// DrainInterval governs how often the FCFS queue is re-offered to
	// runners (capacity opens asynchronously on remote machines); 50 ms
	// by default.
	DrainInterval time.Duration
	// Policy is the placement policy (nil means the paper's §5.1 rule).
	Policy sched.Policy

	// HealthInterval, when > 0, enables runner health checking: every
	// interval each runner is probed with GET /runner/state under
	// HealthTimeout. After HealthThreshold consecutive probe failures
	// the runner is declared failed: it is force-removed from the
	// scheduler (sched.FailGPU), whatever working set is still
	// reachable is drained, and every request placed on it is requeued
	// FCFS onto the survivors instead of erroring the run.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1 s).
	HealthTimeout time.Duration
	// HealthThreshold is the consecutive-failure count that declares
	// death (default 3).
	HealthThreshold int
	// RecoverWait bounds how long a broken token stream waits for its
	// request to be re-placed before giving up (default 15 s). Only
	// meaningful with health checking enabled.
	RecoverWait time.Duration

	// Admission bounds the frontend's FCFS queue (zero = unbounded,
	// byte-identical legacy behavior). Rejections and sheds surface as
	// 429 with the backpressure envelope.
	Admission sched.AdmissionConfig
	// Retry, when Enabled, retries transient per-runner call failures
	// with exponential backoff; mutating calls carry idempotency keys.
	Retry RetryPolicy
	// Breaker, when Threshold > 0, gives every runner link a circuit
	// breaker: consecutive transport failures quarantine the runner
	// (zero Snapshot → no placements) until probes re-close it.
	Breaker BreakerConfig
	// NetFaults, when non-nil, injects the plan's link faults into every
	// frontend↔runner transport (including probes and token streams).
	NetFaults *NetFaultInjector
}

func (o FrontendOptions) withDefaults() FrontendOptions {
	if o.DrainInterval <= 0 {
		o.DrainInterval = 50 * time.Millisecond
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.HealthThreshold <= 0 {
		o.HealthThreshold = 3
	}
	if o.RecoverWait <= 0 {
		o.RecoverWait = 15 * time.Second
	}
	return o
}

// placement records where a request currently lives, with enough state
// to re-dispatch it when that runner dies.
type placement struct {
	req *core.Request
	gpu *sched.GPU
}

// Frontend terminates user connections and routes requests across remote
// runners through the Punica scheduler (Fig. 2: "frontend servers ...
// forward users' serving requests to the Punica scheduler"). Token
// streams are proxied from the owning runner back to the user; when
// health checking is enabled, a stream cut by a runner crash re-attaches
// to the request's new owner and resumes exactly where it left off
// (token indices dedupe the recomputed prefix).
type Frontend struct {
	sch     *sched.Scheduler
	clients map[*sched.GPU]*Client
	opts    FrontendOptions

	mu        sync.Mutex
	nextID    int64
	placed    map[int64]placement
	waiters   map[int64]chan *sched.GPU
	shed      map[int64]bool // queued requests dropped by the admission layer
	rejects   int64          // 429s answered by /v1/generate
	failed    []string       // UUIDs of runners declared dead
	failures  int64
	recovered int64
	start     time.Time
	stop      chan struct{}
	wg        sync.WaitGroup
	// roleKnown marks runners whose disaggregation role has been
	// discovered from their state endpoint (runners may come up after
	// the frontend; discovery retries until each answers).
	roleKnown map[*sched.GPU]bool
}

// NewFrontendWithOptions builds a frontend over runner base URLs. The
// zero options give the paper's §5.1 placement policy and no health
// checking.
func NewFrontendWithOptions(runnerURLs []string, opts FrontendOptions) *Frontend {
	opts = opts.withDefaults()
	f := &Frontend{
		opts:      opts,
		clients:   make(map[*sched.GPU]*Client),
		placed:    make(map[int64]placement),
		waiters:   make(map[int64]chan *sched.GPU),
		shed:      make(map[int64]bool),
		start:     time.Now(),
		stop:      make(chan struct{}),
		roleKnown: make(map[*sched.GPU]bool),
	}
	var gpus []*sched.GPU
	for i, url := range runnerURLs {
		var rt http.RoundTripper
		if opts.NetFaults != nil {
			rt = opts.NetFaults.Transport(i, nil)
		}
		client := NewClientWithTransport(url, rt)
		if opts.Retry.Enabled() {
			client.SetRetry(opts.Retry)
		}
		if opts.Breaker.Threshold > 0 {
			client.SetBreaker(NewBreaker(opts.Breaker))
		}
		g := &sched.GPU{UUID: fmt.Sprintf("runner-%02d@%s", i, url), Engine: client}
		f.clients[g] = client
		gpus = append(gpus, g)
	}
	f.sch = sched.NewWithPolicy(gpus, opts.Policy)
	f.sch.SetAdmission(opts.Admission)
	f.sch.OnShed = f.onShed
	f.wg.Add(1)
	go f.drainLoop(opts.DrainInterval)
	if opts.HealthInterval > 0 {
		f.wg.Add(1)
		go f.healthLoop()
	}
	return f
}

// Close stops the background loops.
func (f *Frontend) Close() {
	close(f.stop)
	f.wg.Wait()
}

func (f *Frontend) now() time.Duration { return time.Since(f.start) }

// drainLoop periodically re-offers queued requests; remote capacity
// frees without notification.
func (f *Frontend) drainLoop(interval time.Duration) {
	defer f.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.mu.Lock()
			placed, err := f.sch.DrainQueue(f.now())
			if err == nil {
				for _, p := range placed {
					f.notePlacement(p.Request, p.GPU)
				}
			}
			f.migrateTick()
			f.mu.Unlock()
		}
	}
}

// migrateTick disaggregates the HTTP stack: it discovers runner roles,
// then hands every prefill-complete request off the prefill runners to
// a policy-chosen decode runner — KvCache moved over POST /runner/kv,
// not recomputed — and re-points the frontend's placement record so the
// user's token stream re-attaches to the new owner (index dedup bridges
// the handoff). Unified deployments pay one state fetch per runner for
// discovery and nothing after. Callers hold f.mu.
func (f *Frontend) migrateTick() {
	for _, g := range f.sch.GPUs() {
		if f.roleKnown[g] {
			continue
		}
		st, err := f.clients[g].FetchState()
		if err != nil {
			continue
		}
		if role, rerr := core.ParseRole(st.Role); rerr == nil {
			g.Role = role
			f.roleKnown[g] = true
		}
	}
	slackChecked := false
	for _, g := range f.sch.GPUs() {
		if g.Role != core.RolePrefill {
			continue
		}
		if !slackChecked {
			// One slack probe per tick: a saturated decode pool must not
			// cost an export/bounce cycle (and a stream channel swap) per
			// migratable request per tick.
			if !f.sch.DecodePoolHasSlack() {
				return
			}
			slackChecked = true
		}
		for _, id := range f.clients[g].Migratable() {
			dst, err := f.sch.MigrateToDecode(g, id, f.now())
			if err != nil || dst == nil {
				continue
			}
			if p, ok := f.placed[id]; ok {
				p.gpu = dst
				f.placed[id] = p
			}
		}
	}
}

// Probe outcome classes for the health loop's suspicion score.
const (
	probeOK   = iota // answered 200 in time
	probeSlow        // deadline exceeded: possibly just slow
	probeDead        // refused / reset / error status: hard evidence
)

// classifyProbe separates "didn't answer in time" from "actively
// refused": a timeout might be a long batch or GC pause, a connection
// refusal is a dead process.
func classifyProbe(err error) int {
	if err == nil {
		return probeOK
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return probeSlow
	}
	return probeDead
}

// healthLoop probes every managed runner and fails the ones that stop
// answering. Each runner carries a suspicion score with hysteresis:
// refusals add 2, timeouts add 1, and a success decays the score by 1
// instead of resetting it — so one slow probe cannot fail a healthy
// runner, a cleanly dead one still fails after HealthThreshold probes,
// and a flapping runner (alternating probe outcomes) accumulates
// suspicion rather than being forgiven every other tick.
func (f *Frontend) healthLoop() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.opts.HealthInterval)
	defer ticker.Stop()
	scores := make(map[*sched.GPU]int)
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.mu.Lock()
			gpus := append([]*sched.GPU(nil), f.sch.GPUs()...)
			f.mu.Unlock()
			for _, g := range gpus {
				switch classifyProbe(f.clients[g].Probe(f.opts.HealthTimeout)) {
				case probeOK:
					if scores[g] > 0 {
						scores[g]--
					}
				case probeSlow:
					scores[g]++
				case probeDead:
					scores[g] += 2
				}
				if scores[g] >= 2*f.opts.HealthThreshold {
					delete(scores, g)
					f.failRunner(g)
				}
			}
		}
	}
}

// failRunner declares a runner dead: forced scheduler removal, salvage
// of whatever working set is still reachable, and FCFS requeue of every
// request the frontend knows was placed there. Requests restart with
// prefill recomputation on their new owner; their user streams
// re-attach through waitNewOwner.
func (f *Frontend) failRunner(g *sched.GPU) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	_, salvaged, _, ok := f.sch.FailGPU(g.UUID, now)
	if !ok {
		return // already removed (planned drain or a concurrent failure)
	}
	f.failures++
	f.failed = append(f.failed, g.UUID)
	seen := make(map[int64]bool, len(salvaged))
	lost := make([]*core.Request, 0, len(salvaged))
	for _, r := range salvaged {
		if !seen[r.ID] {
			seen[r.ID] = true
			lost = append(lost, r)
		}
	}
	// Union with our own placement records: a dead runner salvages
	// nothing, but the frontend knows what it sent there.
	for id, p := range f.placed {
		if p.gpu == g && !seen[id] {
			seen[id] = true
			lost = append(lost, p.req)
		}
	}
	sort.Slice(lost, func(i, j int) bool {
		if lost[i].Arrival != lost[j].Arrival {
			return lost[i].Arrival < lost[j].Arrival
		}
		return lost[i].ID < lost[j].ID
	})
	for _, r := range lost {
		delete(f.placed, r.ID)
		// Restart generation from token zero. A drain of a
		// half-responsive runner can salvage Generated beyond what the
		// user's (now broken) stream delivered — tokens stranded in the
		// dead stream's buffer. Regenerating from scratch is the only
		// state that guarantees the re-attached stream replays them;
		// token ids are deterministic, and the per-token Index dedup
		// drops whatever prefix the user already has.
		r.Generated = 0
		dst, err := f.sch.Requeue(r, now)
		if err != nil {
			continue
		}
		f.recovered++
		if dst != nil {
			f.notePlacement(r, dst)
		}
		// Queued requests land via the drain loop, which re-records the
		// placement and wakes any waiter.
	}
}

// ErrShed reports that a queued request was dropped by the admission
// layer's best-effort shedding to make room for a higher-priority
// arrival. The generate endpoint answers it with 429.
var ErrShed = errors.New("remote: request shed under overload")

// onShed marks a queued request dropped by the admission layer and
// wakes its Submit waiter with a closed channel. Runs with f.mu held
// (inside Dispatch inside Submit).
func (f *Frontend) onShed(r *core.Request) {
	f.shed[r.ID] = true
	if ch, ok := f.waiters[r.ID]; ok {
		close(ch)
		delete(f.waiters, r.ID)
	}
}

// Submit dispatches a request and returns the runner that owns it,
// blocking while the request waits in the FCFS queue.
func (f *Frontend) Submit(model int64, promptLen, outputLen int, timeout time.Duration) (int64, *Client, error) {
	return f.SubmitTenant(model, 0, promptLen, outputLen, timeout)
}

// SubmitTenant is Submit with a tenant tag for the per-tenant admission
// cap and the fairness layer.
func (f *Frontend) SubmitTenant(model, tenant int64, promptLen, outputLen int, timeout time.Duration) (int64, *Client, error) {
	f.mu.Lock()
	f.nextID++
	id := f.nextID
	r := &core.Request{
		ID:        id,
		Model:     lora.ModelID(model),
		PromptLen: promptLen,
		OutputLen: outputLen,
		Arrival:   f.now(),
		Tenant:    tenant,
	}
	g, err := f.sch.Dispatch(r, f.now())
	if err != nil {
		f.mu.Unlock()
		return 0, nil, err
	}
	if g != nil {
		f.placed[id] = placement{req: r, gpu: g}
		client := f.clients[g]
		f.mu.Unlock()
		return id, client, nil
	}
	// Queued: remember the request so a later runner failure can
	// re-dispatch it, and wait for the drain loop to place it.
	ch := make(chan *sched.GPU, 1)
	f.waiters[id] = ch
	f.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case g, ok := <-ch:
			if !ok || g == nil {
				// Channel closed without a placement: the admission
				// layer shed this request while it waited.
				return 0, nil, ErrShed
			}
			f.mu.Lock()
			client := f.clients[g]
			f.mu.Unlock()
			return id, client, nil
		case <-deadline.C:
			f.mu.Lock()
			delete(f.waiters, id)
			f.mu.Unlock()
			// Best effort: pull it back off the queue via cancel.
			f.CancelEverywhere(id)
			return 0, nil, fmt.Errorf("remote: request %d timed out in queue", id)
		case <-f.stop:
			return 0, nil, fmt.Errorf("remote: frontend closed")
		}
	}
}

// notePlacement records where a request landed. Callers hold f.mu.
func (f *Frontend) notePlacement(r *core.Request, g *sched.GPU) {
	f.placed[r.ID] = placement{req: r, gpu: g}
	if ch, ok := f.waiters[r.ID]; ok {
		ch <- g
		delete(f.waiters, r.ID)
	}
}

// owner returns the client and GPU currently holding a request.
func (f *Frontend) owner(id int64) (*Client, *sched.GPU, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.placed[id]
	if !ok {
		return nil, nil, false
	}
	return f.clients[p.gpu], p.gpu, true
}

// waitNewOwner blocks until the request has a placement to re-attach
// to, the deadline passes, or the user's request context ends. It polls
// (pause first, so the migration/recovery loops get a tick to act): the
// re-placement is driven by the health and drain loops. The owner may
// be the same GPU the stream just broke on — a KV migration that found
// no decode room bounces back to its source with a fresh stream
// channel, and a dead runner's placement simply never answers, so the
// reconnect attempt fails and the poll continues until the health loop
// re-places the request elsewhere.
func (f *Frontend) waitNewOwner(req *http.Request, id int64, deadline time.Time) (*Client, *sched.GPU, bool) {
	for {
		select {
		case <-f.stop:
			return nil, nil, false
		case <-req.Context().Done():
			return nil, nil, false
		case <-time.After(10 * time.Millisecond):
		}
		f.mu.Lock()
		if p, ok := f.placed[id]; ok {
			c := f.clients[p.gpu]
			f.mu.Unlock()
			return c, p.gpu, true
		}
		f.mu.Unlock()
		if time.Now().After(deadline) {
			return nil, nil, false
		}
	}
}

// recoveryEnabled reports whether a broken stream should wait for
// re-attachment rather than fail: always with health checking on, and
// always on a disaggregated deployment — a KV migration handing the
// request to the decode pool is a planned stream break, independent of
// the fault-tolerance knob.
func (f *Frontend) recoveryEnabled() bool {
	if f.opts.HealthInterval > 0 {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sch.HasDecodePool()
}

// forget drops a request's placement record (it finished or was
// cancelled).
func (f *Frontend) forget(id int64) {
	f.mu.Lock()
	delete(f.placed, id)
	f.mu.Unlock()
}

// CancelEverywhere cancels a request wherever it lives.
func (f *Frontend) CancelEverywhere(id int64) bool {
	f.mu.Lock()
	clients := make([]*Client, 0, len(f.clients))
	for _, c := range f.clients {
		clients = append(clients, c)
	}
	delete(f.placed, id)
	f.mu.Unlock()
	found := false
	for _, c := range clients {
		if c.Cancel(id, 0) != nil {
			found = true
		}
	}
	return found
}

// Handler returns the user-facing REST API (same shape as the in-process
// serve package): POST /v1/generate streaming NDJSON, GET /v1/stats.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", f.handleGenerate)
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (f *Frontend) handleGenerate(w http.ResponseWriter, req *http.Request) {
	var gr serve.GenerateRequest
	if err := json.NewDecoder(req.Body).Decode(&gr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	promptLen := gr.PromptLen
	if promptLen == 0 {
		promptLen = serve.EstimateTokens(gr.Prompt)
	}
	if promptLen <= 0 {
		http.Error(w, "empty prompt", http.StatusBadRequest)
		return
	}
	if gr.MaxTokens <= 0 {
		gr.MaxTokens = 128
	}
	id, client, err := f.SubmitTenant(gr.Model, gr.Tenant, promptLen, gr.MaxTokens, 2*time.Minute)
	if err != nil {
		// The same backpressure envelope as the in-process server:
		// admission refusals and sheds answer 429 with a drain-rate
		// Retry-After; everything else stays a retryable 503.
		switch {
		case errors.Is(err, sched.ErrQueueFull):
			f.note429()
			serve.WriteBackpressure(w, http.StatusTooManyRequests, serve.CodeQueueFull, err.Error(), f.retryAfter())
		case errors.Is(err, sched.ErrTenantQueueFull):
			f.note429()
			serve.WriteBackpressure(w, http.StatusTooManyRequests, serve.CodeTenantQueueFull, err.Error(), f.retryAfter())
		case errors.Is(err, ErrShed):
			f.note429()
			serve.WriteBackpressure(w, http.StatusTooManyRequests, serve.CodeShed, err.Error(), f.retryAfter())
		default:
			serve.WriteBackpressure(w, http.StatusServiceUnavailable, serve.CodeUnavailable, err.Error(), f.retryAfter())
		}
		return
	}
	f.streamToUser(w, req, id, client)
}

// note429 counts one 429 answered by the generate endpoint.
func (f *Frontend) note429() {
	f.mu.Lock()
	f.rejects++
	f.mu.Unlock()
}

// retryAfter derives the advertised wait from the scheduler's drain
// rate, clamped to [1s, 120s] (frontend time runs at wall speed).
func (f *Frontend) retryAfter() time.Duration {
	f.mu.Lock()
	d := f.sch.RetryAfterHint(1)
	f.mu.Unlock()
	if d < time.Second {
		d = time.Second
	}
	if d > 120*time.Second {
		d = 120 * time.Second
	}
	return d
}

// streamToUser proxies the runner's NDJSON token stream to the user.
// With health checking enabled, a stream cut mid-generation (runner
// died) waits for the request's re-placement and re-attaches to the new
// owner: the recovering runner regenerates from scratch (deterministic
// token ids), and the per-token Index dedupes the already-delivered
// prefix so the user sees each token exactly once.
func (f *Frontend) streamToUser(w http.ResponseWriter, req *http.Request, id int64, client *Client) {
	next := 0 // next token index the user has not yet received
	wroteHeader := false
	flusher, _ := w.(http.Flusher)

	fail := func(msg string, code int) {
		f.CancelEverywhere(id)
		if !wroteHeader {
			http.Error(w, msg, code)
		}
	}

	// recoverBy bounds the total time spent without forward progress:
	// it is armed when a stream breaks, cleared by every delivered
	// token, and NOT re-armed by retries — a permanently dead owner
	// (health checking off, so no re-placement ever happens) fails with
	// 502 after RecoverWait instead of retrying forever.
	var recoverBy time.Time
	for {
		streamReq, err := http.NewRequestWithContext(req.Context(), "GET", client.StreamURL(id), nil)
		if err != nil {
			fail(err.Error(), http.StatusInternalServerError)
			return
		}
		// The stream rides the link's own transport (StreamDo), so an
		// injected partition severs it exactly like a real one.
		resp, err := client.StreamDo(streamReq)
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
		} else {
			if !wroteHeader {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Header().Set("X-Request-ID", fmt.Sprint(id))
				w.WriteHeader(http.StatusOK)
				wroteHeader = true
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 4096), 1<<20)
			done := false
			for sc.Scan() {
				line := sc.Bytes()
				var ev TokenEvent
				if json.Unmarshal(line, &ev) != nil {
					continue
				}
				if ev.Index < next {
					continue // recomputed prefix after a recovery
				}
				if _, werr := w.Write(append(line, '\n')); werr != nil {
					resp.Body.Close()
					f.CancelEverywhere(id)
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
				next = ev.Index + 1
				recoverBy = time.Time{} // forward progress: disarm
				if ev.EOS {
					done = true
					break
				}
			}
			resp.Body.Close()
			if done {
				f.forget(id)
				return
			}
			// EOF without EOS: the owning runner died mid-stream (or
			// drained the request away). Fall through to recovery.
		}
		if !f.recoveryEnabled() || req.Context().Err() != nil {
			// No fault tolerance configured and no migration possible,
			// or it was the *user* who went away (their context is done)
			// — cancel now instead of holding the request through a
			// pointless recovery wait.
			fail("runner stream unavailable", http.StatusBadGateway)
			return
		}
		if recoverBy.IsZero() {
			recoverBy = time.Now().Add(f.opts.RecoverWait)
		} else if time.Now().After(recoverBy) {
			fail("request lost: runner died and recovery timed out", http.StatusBadGateway)
			return
		}
		newClient, _, ok := f.waitNewOwner(req, id, recoverBy)
		if !ok {
			fail("request lost: runner died and recovery timed out", http.StatusBadGateway)
			return
		}
		client = newClient
	}
}

func (f *Frontend) handleStats(w http.ResponseWriter, _ *http.Request) {
	f.mu.Lock()
	clients := make([]*Client, 0, len(f.clients))
	breakers := make(map[string]string)
	var retries int64
	for g, c := range f.clients {
		clients = append(clients, c)
		retries += c.Retries()
		if b := c.Breaker(); b != nil {
			breakers[g.UUID] = b.State().String()
		}
	}
	queueLen := f.sch.QueueLen()
	queuePeak := f.sch.QueuePeak()
	admStats := f.sch.AdmissionStats()
	rejects := f.rejects
	failed := append([]string(nil), f.failed...)
	failures := f.failures
	recovered := f.recovered
	schedStats := f.sch.Stats()
	f.mu.Unlock()
	var states []State
	for _, c := range clients {
		st, err := c.FetchState()
		if err != nil {
			st = State{UUID: "unreachable"}
		}
		states = append(states, st)
	}
	var faults *NetFaultStats
	if f.opts.NetFaults != nil {
		s := f.opts.NetFaults.Stats()
		faults = &s
	}
	writeJSON(w, struct {
		Runners        []State           `json:"runners"`
		QueueLen       int               `json:"queue_len"`
		QueuePeak      int               `json:"queue_peak"`
		FailedRunners  []string          `json:"failed_runners,omitempty"`
		GPUFailures    int64             `json:"gpu_failures"`
		Recovered      int64             `json:"recovered_requests"`
		KVMigrations   int64             `json:"kv_migrations"`
		KVPrefetches   int64             `json:"adapter_prefetches"`
		Rejected       int64             `json:"admission_rejected,omitempty"`
		TenantRejected int64             `json:"admission_tenant_rejected,omitempty"`
		Shed           int64             `json:"admission_shed,omitempty"`
		HTTP429        int64             `json:"http_429,omitempty"`
		Retries        int64             `json:"retries,omitempty"`
		Breakers       map[string]string `json:"breakers,omitempty"`
		NetFaults      *NetFaultStats    `json:"net_faults,omitempty"`
	}{Runners: states, QueueLen: queueLen, QueuePeak: queuePeak, FailedRunners: failed,
		GPUFailures: failures, Recovered: recovered,
		KVMigrations: schedStats.KVMigrations, KVPrefetches: schedStats.AdapterPrefetches,
		Rejected: admStats.Rejected, TenantRejected: admStats.TenantRejected,
		Shed: admStats.Shed, HTTP429: rejects, Retries: retries,
		Breakers: breakers, NetFaults: faults})
}
