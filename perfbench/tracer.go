package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"punica/internal/remote"
)

// pollHeader marks the tracer's own /runner/state polls so the runner
// wrapper does not count them as frontend RPCs.
const pollHeader = "X-Perfbench-Poll"

// pollInterval is the traced run's state-sampling period.
const pollInterval = 20 * time.Millisecond

// tracer is the traced run's instrumentation: wrappers around the
// user-facing handler and every runner handler, a state poller, and a
// CPU profile, all active only inside the measurement window.
type tracer struct {
	chat bool

	mu     sync.Mutex
	active bool
	// User-facing generate calls that entered during the window.
	userEntry  map[int64]time.Time // request id -> handler entry
	firstWrite []float64           // ms from entry to the first token write (200s)
	writeNs    int64               // Write+Flush time on 200 streams
	userBytes  int64
	userTokens int64
	// Runner routes.
	enqueueAt   map[int64]time.Time // request id -> first /runner/enqueue arrival
	routeCalls  map[string]int64
	routeMs     map[string][]float64
	state304    int64
	streamBytes int64
	streamLines int64

	prof     bytes.Buffer
	profErr  error
	stopPoll chan struct{}
	polled   chan struct{}
	polls    []pollSample
}

// pollSample is one observation of the deployment's state.
type pollSample struct {
	at       time.Time
	queueLen int
	active   []int
	freeFrac []float64
	steps    int64
}

func newTracer(chat bool) *tracer {
	return &tracer{
		chat:       chat,
		userEntry:  map[int64]time.Time{},
		enqueueAt:  map[int64]time.Time{},
		routeCalls: map[string]int64{},
		routeMs:    map[string][]float64{},
	}
}

func (t *tracer) isActive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// start opens the window: profile on, poller running.
func (t *tracer) start(st *stack) {
	t.mu.Lock()
	t.active = true
	t.mu.Unlock()
	t.profErr = pprof.StartCPUProfile(&t.prof)
	t.stopPoll = make(chan struct{})
	t.polled = make(chan struct{})
	go t.poll(st)
}

// stop closes the window and waits for the poller.
func (t *tracer) stop() {
	t.mu.Lock()
	t.active = false
	t.mu.Unlock()
	close(t.stopPoll)
	<-t.polled
	if t.profErr == nil {
		pprof.StopCPUProfile()
	}
}

func (t *tracer) poll(st *stack) {
	defer close(t.polled)
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		if s, ok := t.sample(st); ok {
			t.polls = append(t.polls, s)
		}
		select {
		case <-t.stopPoll:
			return
		case <-tick.C:
		}
	}
}

// sample reads Snapshot() in process, or each runner's /runner/state.
func (t *tracer) sample(st *stack) (pollSample, bool) {
	s := pollSample{at: time.Now()}
	if st.server != nil {
		snap := st.server.Snapshot()
		s.queueLen = snap.QueueLen
		for _, g := range snap.GPUs {
			s.active = append(s.active, g.ActiveBatch)
			s.freeFrac = append(s.freeFrac, frac(g.FreeKVPages, g.TotalKVPages))
			s.steps += g.Steps
		}
		return s, true
	}
	for _, r := range st.runners {
		req, _ := http.NewRequest(http.MethodGet, r.url+"/runner/state", nil)
		req.Header.Set(pollHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return s, false
		}
		var rs remote.State
		err = json.NewDecoder(resp.Body).Decode(&rs)
		resp.Body.Close()
		if err != nil {
			return s, false
		}
		s.active = append(s.active, rs.ActiveBatch)
		s.freeFrac = append(s.freeFrac, frac(rs.FreePages, rs.TotalPages))
		s.steps += rs.Steps
	}
	return s, true
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timedWriter times and counts what a handler writes.
type timedWriter struct {
	http.ResponseWriter
	status     int
	firstWrite time.Time
	busy       time.Duration
	bytes      int64
	lines      int64
}

func (w *timedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(b []byte) (int, error) {
	start := time.Now()
	if w.firstWrite.IsZero() {
		w.firstWrite = start
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.busy += time.Since(start)
	w.bytes += int64(n)
	w.lines += int64(bytes.Count(b[:n], []byte{'\n'}))
	return n, err
}

func (w *timedWriter) Flush() {
	start := time.Now()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.busy += time.Since(start)
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// wrapUser instruments POST /v1/generate on the user-facing handler.
func (t *tracer) wrapUser(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/generate" || !t.isActive() {
			h.ServeHTTP(w, r)
			return
		}
		entry := time.Now()
		tw := &timedWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		id, idErr := strconv.ParseInt(tw.Header().Get("X-Request-ID"), 10, 64)
		t.mu.Lock()
		defer t.mu.Unlock()
		if idErr == nil {
			t.userEntry[id] = entry
		}
		if tw.status == http.StatusOK {
			t.firstWrite = append(t.firstWrite, ms(tw.firstWrite.Sub(entry)))
			t.writeNs += int64(tw.busy)
			t.userBytes += tw.bytes
			t.userTokens += tw.lines
		}
	})
}

// wrapRunner counts and times every runner route and correlates
// /runner/enqueue arrivals with user requests by request id.
func (t *tracer) wrapRunner(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(pollHeader) != "" || !t.isActive() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		route := strings.TrimPrefix(r.URL.Path, "/runner/")
		if route == "enqueue" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var rs remote.RequestState
			if json.Unmarshal(body, &rs) == nil {
				t.mu.Lock()
				if _, seen := t.enqueueAt[rs.ID]; !seen {
					t.enqueueAt[rs.ID] = start
				}
				t.mu.Unlock()
			}
		}
		tw := &timedWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		busy := time.Since(start)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.routeCalls[route]++
		t.routeMs[route] = append(t.routeMs[route], ms(busy))
		switch route {
		case "state":
			if tw.status == http.StatusNotModified {
				t.state304++
			}
		case "stream":
			t.streamBytes += tw.bytes
			t.streamLines += tw.lines
		}
	})
}

// report fills the per-layer metrics of a traced serving run.
func (t *tracer) report(res *runResult, fs finalStats, window time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	completed := float64(res.completedInWindow)
	perReq := func(n int64) float64 {
		if completed == 0 {
			return 0
		}
		return float64(n) / completed
	}
	perToken := func(x float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}

	var waits []float64
	for id, entry := range t.userEntry {
		if at, ok := t.enqueueAt[id]; ok {
			waits = append(waits, ms(at.Sub(entry)))
		}
	}
	var rpcs int64
	for _, route := range runnerRoutes {
		rpcs += t.routeCalls[route]
		res.set("remote.rpcs_per_req."+route, perReq(t.routeCalls[route]))
		res.set("remote.runner_ms_p50."+route, percentile(t.routeMs[route], 50))
	}
	res.set("remote.queue_wait_ms_p50", percentile(waits, 50))
	res.set("remote.rpcs_per_req", perReq(rpcs))
	res.set("remote.state_304_frac", perToken(float64(t.state304), t.routeCalls["state"]))
	res.set("remote.stream_bytes_per_token", perToken(float64(t.streamBytes), t.streamLines))
	res.set("remote.retries", float64(fs.retries))

	writeUs := perToken(float64(t.writeNs)/1e3, t.userTokens)
	if t.chat {
		res.set("remote.proxy_write_us_per_token", writeUs)
	} else {
		res.set("serve.first_write_ms_p50", percentile(t.firstWrite, 50))
		res.set("serve.write_us_per_token", writeUs)
		res.set("serve.bytes_per_token", perToken(float64(t.userBytes), t.userTokens))
		if sent := res.values["bench.sent"]; sent > 0 {
			res.set("serve.refused_frac", res.values["bench.refused"]/sent)
		}
		res.set("sched.drain_rate_per_s", fs.drainRate)
	}
	res.set("sched.queue_peak", float64(fs.queuePeak))
	res.set("sched.rejected", float64(fs.rejected))
	if fs.steps > 0 {
		res.set("core.tokens_per_step", float64(fs.tokens)/float64(fs.steps))
	}
	res.set("lora.resident_adapters", float64(fs.adapters))

	// Poll-derived: Little's law queue wait, step rate, batch, KV headroom.
	if n := len(t.polls); n > 1 {
		var queue, active, samples float64
		freeMin := math.Inf(1)
		for _, p := range t.polls {
			queue += float64(p.queueLen)
			for i, a := range p.active {
				active += float64(a)
				samples++
				freeMin = math.Min(freeMin, p.freeFrac[i])
			}
		}
		first, last := t.polls[0], t.polls[n-1]
		if span := last.at.Sub(first.at).Seconds(); span > 0 {
			res.set("core.steps_per_s", float64(last.steps-first.steps)/span/servingGPUs)
		}
		if samples > 0 {
			res.set("core.active_batch_mean", active/samples)
			res.set("kvcache.free_frac_min", freeMin)
		}
		admitted := (res.values["bench.sent"] - res.values["bench.refused"]) / window.Seconds()
		if !t.chat && admitted > 0 {
			res.set("sched.queue_wait_ms", queue/float64(n)/admitted*1000)
		}
	}
	t.profileShares(res)
}

// profileShares attributes the window's CPU profile to packages.
func (t *tracer) profileShares(res *runResult) {
	if t.profErr != nil {
		res.problem("cpu profile: %v", t.profErr)
		return
	}
	setProfileShares(res, t.prof.Bytes())
}

func setProfileShares(res *runResult, gz []byte) {
	shares, err := profileShares(gz)
	if err != nil {
		res.problem("cpu profile: %v", err)
		return
	}
	for b, v := range shares {
		res.set("prof."+b+"_frac", v)
	}
}
