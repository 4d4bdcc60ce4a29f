package remote

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/serve"
)

// Runner hosts one GPU engine behind the runner HTTP API. It paces
// simulated invocation latencies in wall time (Speedup 1 = realistic)
// and streams tokens per request.
type Runner struct {
	uuid string
	// bootID is a per-process nonce mixed into the /runner/state ETag:
	// a restarted runner's engine recounts versions from zero, and
	// without the nonce a client that cached "v42" from the previous
	// incarnation would get a false 304 when the new engine reaches 42.
	bootID string

	// idem replays responses for retried idempotent calls (enqueue, KV
	// import, prefetch) so a resubmission after a dropped response does
	// not double-apply.
	idem *idemTable

	mu      sync.Mutex
	cond    *sync.Cond
	eng     *core.Engine
	streams map[int64]chan core.Token
	// streamDone marks channels already closed (finished or exported)
	// but kept resident so a late or lagging reader can still drain the
	// buffered tokens; guards against double close.
	streamDone map[int64]bool
	// pace is the runner's clock; the driver paces its steps on its own
	// copy.
	pace   serve.Pacer
	closed bool
	wg     sync.WaitGroup
	// lastFinishAt/finishGap track the EWMA inter-finish gap (sim
	// seconds): the drain-rate estimate behind Retry-After on 503s.
	lastFinishAt time.Duration
	finishGap    float64
}

// BootEntropy fills b with the randomness behind the per-process boot
// nonce. The default draws from crypto/rand with a wall-clock fallback
// — uniqueness across restarts is all the nonce provides, not secrecy.
// It is a package variable so tests can pin the nonce and assert exact
// /runner/state ETag values across a simulated restart.
var BootEntropy func(b []byte) = defaultBootEntropy

func defaultBootEntropy(b []byte) {
	if _, err := rand.Read(b); err != nil {
		binary.LittleEndian.PutUint64(b, uint64(time.Now().UnixNano()))
	}
}

// NewRunner starts a runner around an engine built from cfg.
func NewRunner(uuid string, cfg core.Config, speedup float64) *Runner {
	if speedup <= 0 {
		speedup = 1
	}
	var nonce [8]byte
	BootEntropy(nonce[:])
	r := &Runner{
		uuid:       uuid,
		bootID:     hex.EncodeToString(nonce[:]),
		idem:       newIdemTable(idemTableCapacity),
		streams:    make(map[int64]chan core.Token),
		streamDone: make(map[int64]bool),
		pace:       serve.NewPacer(speedup),
	}
	r.cond = sync.NewCond(&r.mu)
	cfg.OnToken = r.onToken
	cfg.OnFinish = r.onFinish
	r.eng = core.NewEngine(cfg)
	r.wg.Add(1)
	go r.drive(r.pace)
	return r
}

// UUID returns the runner's identity.
func (r *Runner) UUID() string { return r.uuid }

// Close stops the driver and closes open streams.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	for id := range r.streams {
		r.closeStream(id)
		delete(r.streams, id)
		delete(r.streamDone, id)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// closeStream closes a stream channel exactly once, keeping the entry
// resident so buffered tokens stay drainable. Callers hold r.mu.
func (r *Runner) closeStream(id int64) {
	if ch, ok := r.streams[id]; ok && !r.streamDone[id] {
		close(ch)
		r.streamDone[id] = true
	}
}

func (r *Runner) onToken(tok core.Token) {
	if ch, ok := r.streams[tok.RequestID]; ok {
		select {
		case ch <- tok:
		default:
		}
	}
}

// onFinish closes the stream but keeps it resident: a frontend that
// connects after a fast generation completed must still be able to drain
// the buffered tokens. handleStream removes the entry once served. It
// also folds the inter-finish gap into the drain-rate EWMA that prices
// Retry-After on 503 refusals. Runs with r.mu held (engine callback).
func (r *Runner) onFinish(req *core.Request) {
	r.closeStream(req.ID)
	now := r.pace.SimNow()
	if r.lastFinishAt > 0 {
		if gap := (now - r.lastFinishAt).Seconds(); gap > 0 {
			const alpha = 0.2
			if r.finishGap == 0 {
				r.finishGap = gap
			} else {
				r.finishGap = (1-alpha)*r.finishGap + alpha*gap
			}
		}
	}
	r.lastFinishAt = now
}

// retryAfterSecs converts the EWMA inter-finish gap to wall seconds —
// "one batch slot should free up in about this long" — clamped to
// [1, 30]. Callers hold r.mu.
func (r *Runner) retryAfterSecs() int {
	if r.finishGap <= 0 {
		return 1
	}
	gap := time.Duration(r.finishGap * float64(time.Second))
	secs := int(math.Ceil(r.pace.WallDelay(gap).Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// drive runs invocations back-to-back, pacing simulated latency into
// wall time. Requests evicted under memory pressure are re-enqueued
// locally (the scheduler can additionally migrate via /runner/evict).
func (r *Runner) drive(pace serve.Pacer) {
	defer r.wg.Done()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.closed {
		if !r.eng.Busy() {
			pace.Wait(r.cond)
			continue
		}
		now := pace.SimNow()
		res := r.eng.Step(now)
		for _, ev := range res.Evicted {
			if err := r.eng.Enqueue(ev, now); err != nil {
				r.dropStream(ev.ID)
			}
		}
		if res.Idle {
			wake, ok := r.eng.EarliestPendingReady()
			if !ok {
				pace.Wait(r.cond)
				continue
			}
			pace.Sleep(&r.mu, wake-now)
			continue
		}
		pace.Step(&r.mu, res.Latency)
	}
}

func (r *Runner) dropStream(id int64) {
	r.closeStream(id)
	delete(r.streams, id)
	delete(r.streamDone, id)
}

// Handler returns the runner HTTP API consumed by remote.Client and the
// frontend's stream proxy.
func (r *Runner) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runner/enqueue", r.idem.wrap(r.handleEnqueue))
	mux.HandleFunc("POST /runner/cancel", r.handleCancel)
	mux.HandleFunc("POST /runner/evict", r.handleEvict)
	mux.HandleFunc("POST /runner/drain", r.handleDrain)
	mux.HandleFunc("POST /runner/kv", r.idem.wrap(r.handleKVImport))
	mux.HandleFunc("POST /runner/kv/export", r.handleKVExport)
	mux.HandleFunc("POST /runner/prefetch", r.idem.wrap(r.handlePrefetch))
	mux.HandleFunc("GET /runner/state", r.handleState)
	mux.HandleFunc("GET /runner/stream", r.handleStream)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (r *Runner) handleEnqueue(w http.ResponseWriter, req *http.Request) {
	var ws RequestState
	if err := json.NewDecoder(req.Body).Decode(&ws); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		http.Error(w, "runner closed", http.StatusServiceUnavailable)
		return
	}
	cr := ws.toCore()
	if _, ok := r.streams[cr.ID]; !ok {
		r.streams[cr.ID] = make(chan core.Token, cr.OutputLen+1)
	}
	if err := r.eng.Enqueue(cr, r.pace.SimNow()); err != nil {
		r.dropStream(cr.ID)
		// Adapter-store backpressure is transient: report 503 so the
		// remote scheduler requeues instead of failing the request, with
		// a drain-rate-derived Retry-After for clients that back off.
		status := http.StatusConflict
		if errors.Is(err, lora.ErrStoreFull) {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", strconv.Itoa(r.retryAfterSecs()))
		}
		http.Error(w, err.Error(), status)
		return
	}
	r.cond.Broadcast()
	w.WriteHeader(http.StatusOK)
}

func (r *Runner) handleCancel(w http.ResponseWriter, req *http.Request) {
	var c CancelRequest
	if err := json.NewDecoder(req.Body).Decode(&c); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	cr := r.eng.Cancel(c.ID, r.pace.SimNow())
	r.dropStream(c.ID)
	r.mu.Unlock()
	reply := CancelReply{Found: cr != nil}
	if cr != nil {
		ws := fromCore(cr)
		reply.Request = &ws
	}
	writeJSON(w, reply)
}

func (r *Runner) handleEvict(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	cr := r.eng.EvictNewest(r.pace.SimNow())
	if cr != nil {
		r.dropStream(cr.ID)
	}
	r.mu.Unlock()
	reply := CancelReply{Found: cr != nil}
	if cr != nil {
		ws := fromCore(cr)
		reply.Request = &ws
	}
	writeJSON(w, reply)
}

// handleDrain force-drains the engine: every resident request is
// returned for re-dispatch elsewhere (KvCache and adapter pins release
// with exact accounting) and its local token stream closes. The
// frontend uses it both for planned decommission and to salvage state
// from a runner it is about to declare failed.
func (r *Runner) handleDrain(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	lost, lostKV := r.eng.Crash(r.pace.SimNow())
	for _, req := range lost {
		r.dropStream(req.ID)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	reply := DrainReply{LostKVTokens: lostKV}
	for _, req := range lost {
		reply.Requests = append(reply.Requests, fromCore(req))
	}
	writeJSON(w, reply)
}

// handleState serves the runner's scheduling snapshot with version
// validation: the response carries ETag "<boot-nonce>-v<version>" (the
// engine's mutation counter under this process's boot nonce), and a
// request presenting the current tag via If-None-Match gets 304 Not
// Modified — no JSON assembly, no adapter list on the wire. Remote
// fleets thereby get the same win as the in-process scheduler's
// version-cached snapshots.
func (r *Runner) handleState(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	etag := fmt.Sprintf("%q", r.bootID+"-v"+strconv.FormatUint(r.eng.StateVersion(), 10))
	if req.Header.Get("If-None-Match") == etag {
		r.mu.Unlock()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	st := stateOf(r.uuid, r.eng.Snapshot(), r.eng.Stats(), r.eng.Migratable(), r.eng.Tiers())
	r.mu.Unlock()
	w.Header().Set("ETag", etag)
	writeJSON(w, st)
}

// handleKVExport detaches a prefilled request as a migration handle
// (the wire form of Engine.ExportKV). The request's local token stream
// closes but stays readable: a frontend proxy that lags behind drains
// the buffered tokens, hits EOF, and re-attaches to the request's new
// owner with index dedup — no token is lost or duplicated across the
// handoff.
func (r *Runner) handleKVExport(w http.ResponseWriter, req *http.Request) {
	var er ExportRequest
	if err := json.NewDecoder(req.Body).Decode(&er); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	h, err := r.eng.ExportKV(er.ID, r.pace.SimNow())
	if err == nil {
		// Close-but-keep, like onFinish: buffered tokens stay drainable.
		r.closeStream(er.ID)
	}
	r.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, handleFromCore(h))
}

// handleKVImport lands a migration handle (the wire form of
// Engine.ImportKV): adapter pinned, pages allocated page-exactly, and
// the request batch-eligible once the sized link transfer elapses. A
// fresh token stream is registered so the frontend can re-attach.
func (r *Runner) handleKVImport(w http.ResponseWriter, req *http.Request) {
	var wireHandle KVHandleWire
	if err := json.NewDecoder(req.Body).Decode(&wireHandle); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		http.Error(w, "runner closed", http.StatusServiceUnavailable)
		return
	}
	h := wireHandle.toCore()
	id := h.Request.ID
	if _, ok := r.streams[id]; !ok || r.streamDone[id] {
		// Fresh channel — also when a previous incarnation (an export
		// bounced back to this runner) left a closed one behind.
		r.streams[id] = make(chan core.Token, h.Request.OutputLen+1)
		delete(r.streamDone, id)
	}
	if err := r.eng.ImportKV(h, r.pace.SimNow()); err != nil {
		r.dropStream(id)
		status := http.StatusConflict
		if errors.Is(err, lora.ErrStoreFull) {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", strconv.Itoa(r.retryAfterSecs()))
		}
		http.Error(w, err.Error(), status)
		return
	}
	// Seed the stream with the tokens the exporting runner already
	// emitted (they are deterministic, so no payload crosses the wire):
	// a proxy that attaches only after the migration still sees every
	// index from zero, and one that already delivered the prefix drops
	// the duplicates by index.
	vocab := r.eng.Config().Model.VocabSize
	for i := 0; i < h.Request.Generated; i++ {
		r.onToken(core.Token{
			RequestID: id,
			Index:     i,
			TokenID:   core.TokenIDFor(id, i, vocab),
		})
	}
	r.cond.Broadcast()
	w.WriteHeader(http.StatusOK)
}

// handlePrefetch warms an adapter without pinning it — the decode-
// target hint issued while a request's prefill runs elsewhere.
func (r *Runner) handlePrefetch(w http.ResponseWriter, req *http.Request) {
	var pr PrefetchRequest
	if err := json.NewDecoder(req.Body).Decode(&pr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	ok := r.eng.PrefetchAdapter(lora.ModelID(pr.Model), r.pace.SimNow())
	r.mu.Unlock()
	writeJSON(w, PrefetchReply{Accepted: ok})
}

// handleStream pipes a request's tokens as NDJSON until EOS, cancel, or
// client disconnect.
func (r *Runner) handleStream(w http.ResponseWriter, req *http.Request) {
	id, err := strconv.ParseInt(req.URL.Query().Get("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad id", http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	ch, ok := r.streams[id]
	r.mu.Unlock()
	if !ok {
		http.Error(w, "unknown request", http.StatusNotFound)
		return
	}
	defer func() {
		r.mu.Lock()
		if cur, still := r.streams[id]; still && cur == ch {
			delete(r.streams, id)
			delete(r.streamDone, id)
		}
		r.mu.Unlock()
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case tok, open := <-ch:
			if !open {
				return
			}
			ev := TokenEvent{
				RequestID: tok.RequestID,
				Index:     tok.Index,
				TokenID:   tok.TokenID,
				EOS:       tok.EOS,
			}
			if err := enc.Encode(&ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-req.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
