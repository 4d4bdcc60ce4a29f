package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/models"
	"punica/internal/serve"
	"punica/internal/workload"
)

const (
	// drainGrace bounds how long after the window the generator waits
	// for measured requests still in flight; stragglers count as failed.
	drainGrace = 20 * time.Second
	// maxGenLate is how late the generator may run at p99 before the run
	// is rejected: past it, the offered load was not the configured one.
	maxGenLate = 20 * time.Millisecond
	// referenceChecks is how many completed streams are replayed through
	// a reference core.Engine.
	referenceChecks = 8
)

// outcome is one request as the load generator saw it.
type outcome struct {
	req      workload.Request
	due      time.Time
	measured bool // due inside the measurement window

	late     time.Duration
	status   int
	refused  bool
	failed   bool
	first    time.Time // first token line
	last     time.Time // last token line
	done     time.Time // completion (EOS read)
	tokens   int
	reqID    int64
	tokenIDs []int
}

// loadGen drives an open loop of requests at a stack.
type loadGen struct {
	client   *http.Client
	url      string
	vocab    int
	keepIDs  atomic.Int64 // streams whose token ids are kept for the reference check
	gaps     gapHist      // inter-token gaps of measured streams
	mu       sync.Mutex
	problems []string
	pending  atomic.Int64 // measured requests not yet finished
}

func (g *loadGen) problem(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// send issues one request and reads its stream, checking every line.
func (g *loadGen) send(ctx context.Context, o *outcome) {
	o.late = time.Since(o.due)
	body := fmt.Appendf(nil, `{"model":%d,"prompt_len":%d,"max_tokens":%d,"tenant":%d}`,
		o.req.Model, o.req.PromptLen, o.req.OutputLen, o.req.Tenant)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		o.failed = true
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hreq)
	if err != nil {
		o.failed = true
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	switch resp.StatusCode {
	case http.StatusOK:
		g.readStream(o, resp)
	case http.StatusTooManyRequests:
		o.refused = true
		g.checkRefusal(resp)
	default:
		o.failed = true
		g.problem("status %d from /v1/generate", resp.StatusCode)
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
}

// checkRefusal requires the backpressure envelope and a Retry-After.
func (g *loadGen) checkRefusal(resp *http.Response) {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		g.problem("429 without a valid Retry-After header (%q)", resp.Header.Get("Retry-After"))
	}
	var bp serve.Backpressure
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&bp); err != nil {
		g.problem("429 body is not the backpressure envelope: %v", err)
		return
	}
	switch bp.Code {
	case serve.CodeQueueFull, serve.CodeTenantQueueFull, serve.CodeShed:
	default:
		g.problem("429 with backpressure code %q", bp.Code)
	}
}

// tokenLine is one NDJSON token line; serve and the frontend proxy
// share these fields.
type tokenLine struct {
	RequestID int64 `json:"request_id"`
	Index     int   `json:"index"`
	TokenID   int   `json:"token_id"`
	EOS       bool  `json:"eos"`
}

// readStream consumes a 200 stream. It must deliver exactly max_tokens
// lines with contiguous indices, EOS on the last line only, and token
// ids equal to the engine's deterministic derivation for the request id
// the stack announced.
func (g *loadGen) readStream(o *outcome, resp *http.Response) {
	id, err := strconv.ParseInt(resp.Header.Get("X-Request-ID"), 10, 64)
	if err != nil {
		g.problem("200 stream without an X-Request-ID header")
		o.failed = true
		return
	}
	o.reqID = id
	keep := g.keepIDs.Add(-1) >= 0
	want := o.req.OutputLen
	br := bufio.NewReaderSize(resp.Body, 4096)
	eos := false
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			now := time.Now()
			var ev tokenLine
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				g.problem("request %d: bad token line %q", id, line)
				o.failed = true
				return
			}
			switch {
			case eos:
				g.problem("request %d: line after EOS", id)
			case ev.RequestID != id:
				g.problem("request %d: line carries request id %d", id, ev.RequestID)
			case ev.Index != o.tokens:
				g.problem("request %d: index %d, want %d", id, ev.Index, o.tokens)
			case ev.EOS != (ev.Index == want-1):
				g.problem("request %d: eos=%v on index %d of %d", id, ev.EOS, ev.Index, want)
			case ev.TokenID != core.TokenIDFor(id, ev.Index, g.vocab):
				g.problem("request %d: token id %d at index %d", id, ev.TokenID, ev.Index)
			}
			if o.tokens == 0 {
				o.first = now
			} else if o.measured {
				g.gaps.add(ms(now.Sub(o.last)))
			}
			o.last = now
			o.tokens++
			if keep {
				o.tokenIDs = append(o.tokenIDs, ev.TokenID)
			}
			eos = eos || ev.EOS
			continue
		}
		if err == nil || errors.Is(err, bufio.ErrBufferFull) {
			g.problem("request %d: token line longer than 4 KiB", id)
			o.failed = true
			return
		}
		break
	}
	if !eos || o.tokens != want {
		// Truncated: the stream ended early (or the run's deadline cut it).
		o.failed = true
		return
	}
	o.done = time.Now()
}

// referenceCheck replays kept streams through a reference engine fed the
// same request id and requires identical token ids.
func referenceCheck(outs []outcome) []string {
	var problems []string
	for i := range outs {
		o := &outs[i]
		if o.tokenIDs == nil || o.failed {
			continue
		}
		var got []int
		ec := engineConfig(0)
		ec.OnToken = func(t core.Token) { got = append(got, t.TokenID) }
		eng := core.NewEngine(ec)
		r := &core.Request{ID: o.reqID, Model: lora.ModelID(o.req.Model),
			PromptLen: o.req.PromptLen, OutputLen: o.req.OutputLen}
		if err := eng.Enqueue(r, 0); err != nil {
			problems = append(problems, fmt.Sprintf("reference engine refused request %d: %v", o.reqID, err))
			continue
		}
		now := time.Duration(0)
		for steps := 0; eng.Busy() && steps < 100000; steps++ {
			res := eng.Step(now)
			now += res.Latency
			if res.Idle {
				if at, ok := eng.EarliestPendingReady(); ok && at > now {
					now = at
				}
			}
		}
		if len(got) != len(o.tokenIDs) {
			problems = append(problems, fmt.Sprintf("request %d: reference engine emitted %d tokens, stream %d",
				o.reqID, len(got), len(o.tokenIDs)))
			continue
		}
		for k := range got {
			if got[k] != o.tokenIDs[k] {
				problems = append(problems, fmt.Sprintf("request %d: token %d is %d, reference engine says %d",
					o.reqID, k, o.tokenIDs[k], got[k]))
				break
			}
		}
	}
	return problems
}

// gapHist is a fixed-size histogram of inter-token gaps in ms, safe for
// concurrent use. A run streams up to a million gaps; keeping them all
// would grow the generator's heap through the run and make peak_rss_mb
// follow where the collector's cycles happen to fall. Buckets are 1%
// wide from 1 µs up, and percentiles interpolate inside their bucket.
type gapHist struct{ counts [gapBuckets]atomic.Int64 }

const (
	gapMinMs   = 1e-3
	gapGrowth  = 1.01
	gapBuckets = 2048 // up to gapMinMs·gapGrowth^2048 ≈ 720 s
)

func (h *gapHist) add(v float64) {
	i := 0
	if v > gapMinMs {
		i = min(int(math.Log(v/gapMinMs)/math.Log(gapGrowth)), gapBuckets-1)
	}
	h.counts[i].Add(1)
}

// percentile is the nearest-rank p-th percentile, placed inside its
// bucket geometrically by its rank among the bucket's samples.
func (h *gapHist) percentile(p float64) float64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(p/100*float64(n))), 1)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if cum+c >= rank {
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return gapMinMs * math.Pow(gapGrowth, float64(i)+frac)
		}
		cum += c
	}
	return 0
}

// runServing runs chat (frontend + runners) or saturate (in-process
// server) for one window.
func runServing(cfg servingConfig, seed int64, window time.Duration, traced bool) (*runResult, error) {
	res := newResult()
	client := h2cClient(runtime.NumCPU())
	defer client.CloseIdleConnections()

	var tr *tracer
	var wrapUser, wrapRunner func(http.Handler) http.Handler
	if traced {
		tr = newTracer(cfg.chat)
		wrapUser, wrapRunner = tr.wrapUser, tr.wrapRunner
	}

	// Set-up: build and tear down the deployment several times, keep the
	// last build, and report the median build time.
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC() // a collection owed by the last build is not this one's
		start := time.Now()
		var err error
		st, err = buildStack(cfg, client, wrapUser, wrapRunner)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	res.set("setup_s", median(setups))

	// The trace covers warm-up, the window and the drain; only requests
	// due inside the window are measured.
	wallHorizon := warmup + window + drainGrace
	trace := openLoopTrace(cfg.offeredRPS(), time.Duration(float64(wallHorizon)*cfg.speedup), servingAdapters, seed)
	g := &loadGen{client: client, url: st.url, vocab: models.Llama2_7B().VocabSize}
	g.keepIDs.Store(referenceChecks)

	outs := make([]outcome, len(trace))
	t0 := time.Now().Add(50 * time.Millisecond)
	winStart, winEnd := t0.Add(warmup), t0.Add(warmup+window)
	for i, r := range trace {
		due := t0.Add(time.Duration(float64(r.Arrival) / cfg.speedup))
		outs[i] = outcome{req: r, due: due, measured: !due.Before(winStart) && due.Before(winEnd)}
	}

	ctx, cancel := context.WithDeadline(context.Background(), winEnd.Add(drainGrace))
	defer cancel()

	// Window bookkeeping runs on its own goroutine so the CPU counter, the
	// host meter and the tracer switch at the window's edges, not at the
	// next arrival.
	var cpuStart, cpuEnd, meterCPU time.Duration
	var meterIters int64
	edges := make(chan struct{})
	go func() {
		defer close(edges)
		time.Sleep(time.Until(winStart))
		cpuStart = cpuTime()
		meter := startHostMeter()
		if tr != nil {
			tr.start(st)
		}
		time.Sleep(time.Until(winEnd))
		meterIters, meterCPU = meter.finish()
		cpuEnd = cpuTime()
		if tr != nil {
			tr.stop()
		}
	}()

	var wg sync.WaitGroup
	for i := range outs {
		o := &outs[i]
		if o.due.After(winEnd) && g.pending.Load() == 0 {
			break // every measured request has finished
		}
		if wait := time.Until(o.due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		if o.measured {
			g.pending.Add(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.send(ctx, o)
			if o.failed && ctx.Err() == nil {
				// Not cut by the run's own deadline: a transport error,
				// a bad status or a truncated stream.
				g.problem("request due at +%v (%d output tokens) failed after %d token lines",
					o.due.Sub(t0).Round(time.Millisecond), o.req.OutputLen, o.tokens)
			}
			if o.measured {
				g.pending.Add(-1)
			}
		}()
	}
	// Let the measured tail finish before cutting the stragglers.
	for g.pending.Load() > 0 && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	<-edges
	refSpeed := float64(meterIters) / meterCPU.Seconds()

	fs, err := st.stats(client)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, g.problems...)
	res.problems = append(res.problems, referenceCheck(outs)...)
	// The meter's own CPU time is not the stack's.
	summarise(res, cfg, outs, &g.gaps, window, winStart, winEnd, cpuEnd-cpuStart-meterCPU, refSpeed)
	if late := res.values["bench.gen_late_p99_ms"]; late > ms(maxGenLate) {
		res.problem("load generator fell behind: p99 send lateness %.2f ms > %.0f ms", late, ms(maxGenLate))
	}
	if tr != nil {
		tr.report(res, fs, window)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d arrivals in window, %d ok, %d refused, %d failed; queue peak %d; raw %.4f CPU-ms/req at %.0f reference iterations/s\n",
		int64(res.values["bench.sent"]), int64(res.values["bench.ok"]),
		int64(res.values["bench.refused"]), res.failed, fs.queuePeak,
		res.values["host.cpu_ms_per_req_raw"], refSpeed)
	return res, nil
}

// summarise turns the outcomes into the end-to-end metrics and the load
// generator's accounting.
func summarise(res *runResult, cfg servingConfig, outs []outcome, gaps *gapHist, window time.Duration,
	winStart, winEnd time.Time, cpu time.Duration, refSpeed float64) {
	ttftLimit := time.Duration(cfg.ttftLimitSim / cfg.speedup * float64(time.Second))
	tpotLimit := sloTPOTSimS / cfg.speedup * 1000 // ms
	var ttft, late []float64
	var sent, ok, refused, failed, met, completedInWindow int64
	for i := range outs {
		o := &outs[i]
		if !o.done.IsZero() && !o.done.Before(winStart) && o.done.Before(winEnd) {
			completedInWindow++
		}
		if !o.measured || o.status == 0 && !o.failed {
			continue // not measured, or never sent
		}
		sent++
		late = append(late, ms(o.late))
		switch {
		case o.refused:
			refused++
			continue
		case o.failed || o.done.IsZero():
			failed++
			continue
		}
		ok++
		ft := o.first.Sub(o.due)
		ttft = append(ttft, ms(ft))
		tpot := 0.0
		if o.tokens > 1 {
			tpot = ms(o.last.Sub(o.first)) / float64(o.tokens-1)
		}
		if ft <= ttftLimit && tpot <= tpotLimit {
			met++
		}
	}
	res.attempted, res.failed = sent, failed
	if failed > 0 {
		res.problem("%d of %d measured requests failed (transport error, bad status or truncated stream)", failed, sent)
	}
	res.completedInWindow = completedInWindow
	res.set("bench.sent", float64(sent))
	res.set("bench.ok", float64(ok))
	res.set("bench.refused", float64(refused))
	res.set("bench.failed", float64(failed))
	res.set("bench.gen_late_p99_ms", percentile(late, 99))
	res.set("ttft_p50_ms", percentile(ttft, 50))
	res.set("ttft_p90_ms", percentile(ttft, 90))
	res.set("itl_p50_ms", gaps.percentile(50))
	res.set("itl_p99_ms", gaps.percentile(99))
	if sent > 0 {
		res.set("slo_attainment", float64(met)/float64(sent))
	}
	res.set("goodput_req_s", float64(met)/window.Seconds())
	// cpu_ms_per_req is in reference milliseconds: the window's CPU time
	// scaled by how fast the host ran the meter's loop through the window.
	if completedInWindow > 0 {
		raw := ms(cpu) / float64(completedInWindow)
		res.set("cpu_ms_per_req", raw*refSpeed/spinItersPerSecond)
		res.set("host.cpu_ms_per_req_raw", raw)
	}
	res.set("host.ref_iters_per_s", refSpeed)
}
