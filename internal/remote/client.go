package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
)

// idemHeader carries the idempotency key on resubmittable calls.
const idemHeader = "X-Idempotency-Key"

// RetryPolicy configures the client's retry loop. The zero value (and
// any MaxAttempts <= 1) disables retrying — one attempt, byte-identical
// to the pre-retry client.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per call (1 = no retry).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Jitter is the fraction of the backoff randomized around the
	// midpoint (default 0.2). Draws are a pure hash of the client nonce
	// and a retry counter — deterministic under a pinned BootEntropy.
	Jitter float64
}

// Enabled reports whether the policy ever retries.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Client drives one remote runner over HTTP and satisfies sched.Worker,
// so the unmodified §5.1 scheduler routes across machines. Transport
// failures degrade safely: Snapshot answers the zero snapshot, which
// admits nothing, so a dead runner simply attracts no work while it is
// unreachable. With a RetryPolicy
// set, transient failures (transport errors, 429, 502/503) are retried
// with exponential backoff honoring Retry-After; mutating calls carry
// idempotency keys so a dropped *response* cannot double-apply work.
// With a Breaker attached, transport outcomes feed it and an open
// breaker zeroes Snapshot so the scheduler places nothing here.
type Client struct {
	base      string
	transport http.RoundTripper // nil = http.DefaultTransport
	http      *http.Client
	stream    *http.Client // no overall timeout: token streams are long-lived

	retry   RetryPolicy
	breaker *Breaker

	// idemBase/idemNonce derive per-call idempotency keys; retries is
	// the count of re-attempts (not first attempts) issued.
	idemBase   string
	idemNonce  uint64
	idemSeq    atomic.Uint64
	backoffSeq atomic.Uint64
	retries    atomic.Int64
	sleep      func(time.Duration) // injectable for tests

	mu      sync.Mutex
	lastErr error

	// Conditional-GET cache for /runner/state: stateETag is the last
	// ETag seen (the runner's state version) and cachedState the body it
	// tagged. FetchState revalidates with If-None-Match; a 304 reuses
	// cachedState without decoding a byte.
	stateETag   string
	cachedState State
	haveState   bool
}

// NewClient connects to a runner's base URL (e.g. "http://gpu-host:9000").
func NewClient(base string) *Client {
	return NewClientWithTransport(base, nil)
}

// NewClientWithTransport is NewClient over an explicit transport — the
// seam the net-fault injector wraps. Every path the client opens
// (calls, probes, drains, token streams) shares it, so an injected
// partition cuts the whole link, exactly like a real one.
func NewClientWithTransport(base string, rt http.RoundTripper) *Client {
	var nonce [8]byte
	BootEntropy(nonce[:])
	return &Client{
		base:      base,
		transport: rt,
		http:      &http.Client{Timeout: 10 * time.Second, Transport: rt},
		stream:    &http.Client{Transport: rt},
		idemBase:  hex.EncodeToString(nonce[:]),
		idemNonce: binary.LittleEndian.Uint64(nonce[:]),
		sleep:     time.Sleep,
	}
}

// SetRetry installs the retry policy (call before use; not synchronized
// against in-flight calls).
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

// SetBreaker attaches a circuit breaker fed by this client's transport
// outcomes (call before use).
func (c *Client) SetBreaker(b *Breaker) { c.breaker = b }

// Breaker returns the attached breaker (nil when none).
func (c *Client) Breaker() *Breaker { return c.breaker }

// Retries counts re-attempts issued by the retry loop.
func (c *Client) Retries() int64 { return c.retries.Load() }

// LastErr returns the most recent transport error (nil when healthy).
func (c *Client) LastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

func (c *Client) setErr(err error) {
	c.mu.Lock()
	c.lastErr = err
	c.mu.Unlock()
}

// noteTransport feeds the breaker with a transport-level outcome. Only
// connection-level failures count against the link: an HTTP error
// status arrived over a working link.
func (c *Client) noteTransport(err error) {
	if c.breaker == nil {
		return
	}
	if err != nil {
		c.breaker.Failure()
	} else {
		c.breaker.Success()
	}
}

// nextIdemKey mints one idempotency key per logical call; the key is
// shared by every retry attempt of that call, which is what lets the
// runner deduplicate a resubmission after a dropped response.
func (c *Client) nextIdemKey() string {
	return c.idemBase + "-" + strconv.FormatUint(c.idemSeq.Add(1), 36)
}

func (c *Client) postJSON(path string, in, out any) error {
	return c.call(path, in, out, "")
}

// postJSONIdem is postJSON with an idempotency key: for calls that
// mutate runner state and may be resubmitted by the retry loop.
func (c *Client) postJSONIdem(path string, in, out any) error {
	return c.call(path, in, out, c.nextIdemKey())
}

type callResult struct {
	err        error
	retryable  bool
	retryAfter time.Duration
}

func (c *Client) call(path string, in, out any, idemKey string) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var hint time.Duration
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			c.sleep(c.backoff(attempt-1, hint))
		}
		res := c.doOnce(path, body, out, idemKey)
		if res.err == nil {
			return nil
		}
		lastErr = res.err
		if !res.retryable {
			return res.err
		}
		hint = res.retryAfter
	}
	return lastErr
}

func (c *Client) doOnce(path string, body []byte, out any, idemKey string) callResult {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return callResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set(idemHeader, idemKey)
	}
	resp, err := c.http.Do(req)
	c.noteTransport(err)
	if err != nil {
		c.setErr(err)
		return callResult{err: err, retryable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("remote: %s -> %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
		// Re-materialise adapter-store backpressure so errors.Is works
		// across the wire and the scheduler requeues. Never blind-retried
		// here: requeue-and-replace is the scheduler's recovery, and a
		// tight client retry loop would just hammer a full store.
		if resp.StatusCode == http.StatusServiceUnavailable &&
			bytes.Contains(msg, []byte(lora.ErrStoreFull.Error())) {
			err = fmt.Errorf("remote: %s: %w", path, lora.ErrStoreFull)
			c.setErr(err)
			return callResult{err: err}
		}
		c.setErr(err)
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusBadGateway
		return callResult{err: err, retryable: retryable, retryAfter: parseRetryAfter(resp)}
	}
	c.setErr(nil)
	if out == nil {
		return callResult{}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return callResult{err: err}
	}
	return callResult{}
}

// parseRetryAfter reads a delta-seconds Retry-After, capped at 30s so a
// confused server cannot park the client.
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// backoff returns the wait before retry number retryIdx (1-based). A
// server-provided Retry-After hint wins outright; otherwise exponential
// from BaseDelay capped at MaxDelay, with deterministic jitter.
func (c *Client) backoff(retryIdx int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	base := c.retry.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := c.retry.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base
	for i := 1; i < retryIdx && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	jf := c.retry.Jitter
	if jf <= 0 {
		jf = 0.2
	}
	if jf > 1 {
		jf = 1
	}
	u := float64(faultMix64(c.idemNonce^c.backoffSeq.Add(1))>>11) / (1 << 53)
	return d + time.Duration(float64(d)*jf*(u-0.5))
}

// Probe checks the runner's health with a bounded deadline: one GET
// /runner/state that must answer within timeout. The frontend's health
// monitor calls this instead of FetchState so a hung (not just dead)
// runner cannot stall the probe loop for the transport client's full
// 10 s timeout. It deliberately probes the scheduling endpoint rather
// than the cheaper /healthz: a runner that can serve its snapshot is
// provably schedulable, which is the liveness the scheduler cares
// about. The per-call client shares the link transport's connection
// pool; only the deadline is per-probe. Probe outcomes feed the
// breaker: in half-open they are the traffic that re-closes it.
func (c *Client) Probe(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = time.Second
	}
	probe := &http.Client{Timeout: timeout, Transport: c.transport}
	resp, err := probe.Get(c.base + "/runner/state")
	c.noteTransport(err)
	if err != nil {
		c.setErr(err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("remote: probe -> %d", resp.StatusCode)
		c.setErr(err)
		return err
	}
	c.setErr(nil)
	return nil
}

// Crash implements sched.Crasher over the wire: POST /runner/drain
// salvages the runner's working set for re-dispatch. A dead runner
// returns nothing — the frontend then recovers from its own placement
// records. The call uses a short deadline: it runs while a runner is
// being declared failed, so it must not hang on a wedged machine.
func (c *Client) Crash(_ time.Duration) ([]*core.Request, int) {
	drain := &http.Client{Timeout: 2 * time.Second, Transport: c.transport}
	resp, err := drain.Post(c.base+"/runner/drain", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		c.setErr(err)
		return nil, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0
	}
	var reply DrainReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, 0
	}
	lost := make([]*core.Request, 0, len(reply.Requests))
	for _, ws := range reply.Requests {
		lost = append(lost, ws.toCore())
	}
	return lost, reply.LostKVTokens
}

// StreamDo issues a long-lived request (the token stream proxy) over
// the link's transport — unlike the call client it has no overall
// timeout, but it still sees injected faults and feeds the breaker.
func (c *Client) StreamDo(req *http.Request) (*http.Response, error) {
	resp, err := c.stream.Do(req)
	c.noteTransport(err)
	return resp, err
}

// FetchState retrieves the runner's scheduling snapshot, revalidating
// the cached copy with If-None-Match: when the runner's state version
// is unchanged it answers 304 and the cached State is returned without
// decoding a response body.
func (c *Client) FetchState() (State, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodGet, c.base+"/runner/state", nil)
		if err != nil {
			return State{}, err
		}
		c.mu.Lock()
		if c.haveState && c.stateETag != "" {
			req.Header.Set("If-None-Match", c.stateETag)
		}
		c.mu.Unlock()
		resp, err := c.http.Do(req)
		c.noteTransport(err)
		if err != nil {
			c.setErr(err)
			return State{}, err
		}
		if resp.StatusCode == http.StatusNotModified {
			resp.Body.Close()
			c.mu.Lock()
			st, ok := c.cachedState, c.haveState
			if !ok {
				c.stateETag = ""
			}
			c.mu.Unlock()
			if ok {
				c.setErr(nil)
				return st, nil
			}
			// 304 without a cached body should not happen (we only send
			// If-None-Match when we hold one). Retry once without the
			// validator; a server that keeps answering 304 to an
			// unconditional GET is broken — surface it, don't recurse.
			if attempt == 0 {
				continue
			}
			err := fmt.Errorf("remote: /runner/state answered 304 to an unconditional GET")
			c.setErr(err)
			return State{}, err
		}
		var st State
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if decodeErr != nil {
			c.setErr(decodeErr)
			return State{}, decodeErr
		}
		c.setErr(nil)
		c.mu.Lock()
		c.stateETag = resp.Header.Get("ETag")
		c.cachedState = st
		c.haveState = true
		c.mu.Unlock()
		return st, nil
	}
}

// Snapshot implements sched.Worker with a single GET /runner/state: the
// batched view the scheduler evaluates admission from. Transport failures — and an open circuit breaker — return the
// zero snapshot, whose CanAdmit is always false: a dead or quarantined
// runner simply attracts no work.
func (c *Client) Snapshot() core.Snapshot {
	if c.breaker != nil && !c.breaker.PlacementAllowed() {
		return core.Snapshot{}
	}
	st, err := c.FetchState()
	if err != nil {
		return core.Snapshot{}
	}
	return st.toSnapshot()
}

// Enqueue implements sched.Worker. The call carries an idempotency key:
// a retry after a dropped response must not double-admit the request.
func (c *Client) Enqueue(r *core.Request, _ time.Duration) error {
	return c.postJSONIdem("/runner/enqueue", fromCore(r), nil)
}

// WorkingSet is the runner's working-set count from one state fetch (0
// when the runner is unreachable). The scheduler's idle scans read it
// instead of a full Snapshot.
func (c *Client) WorkingSet() int {
	st, err := c.FetchState()
	if err != nil {
		return 0
	}
	return st.WorkingSet
}

// Cancel implements sched.Worker.
func (c *Client) Cancel(id int64, _ time.Duration) *core.Request {
	var reply CancelReply
	if err := c.postJSON("/runner/cancel", CancelRequest{ID: id}, &reply); err != nil {
		return nil
	}
	if !reply.Found || reply.Request == nil {
		return nil
	}
	return reply.Request.toCore()
}

// EvictNewest implements sched.Worker.
func (c *Client) EvictNewest(_ time.Duration) *core.Request {
	var reply CancelReply
	if err := c.postJSON("/runner/evict", struct{}{}, &reply); err != nil {
		return nil
	}
	if !reply.Found || reply.Request == nil {
		return nil
	}
	return reply.Request.toCore()
}

// StreamURL returns the NDJSON token stream endpoint for a request.
func (c *Client) StreamURL(id int64) string {
	return fmt.Sprintf("%s/runner/stream?id=%d", c.base, id)
}

// ExportKV implements sched.KVMover over the wire: POST
// /runner/kv/export detaches the request from the remote runner and
// returns its migration handle.
func (c *Client) ExportKV(id int64, _ time.Duration) (core.KVHandle, error) {
	var reply KVHandleWire
	if err := c.postJSON("/runner/kv/export", ExportRequest{ID: id}, &reply); err != nil {
		return core.KVHandle{}, err
	}
	return reply.toCore(), nil
}

// ImportKV implements sched.KVMover over the wire: POST /runner/kv
// lands the handle on the remote runner, which charges the sized link
// transfer before the request joins a batch. Adapter-store backpressure
// surfaces as lora.ErrStoreFull (via the 503 mapping) so the router
// tries the next decode candidate. Idempotent: a retried import after a
// dropped response must not double-charge the transfer.
func (c *Client) ImportKV(h core.KVHandle, _ time.Duration) error {
	return c.postJSONIdem("/runner/kv", handleFromCore(h), nil)
}

// Migratable implements the router's migratable-listing hook with one
// GET /runner/state: the ids of prefill-complete requests awaiting
// handoff. A transport failure reports none — a dead prefill runner's
// requests recover through the health-check path instead.
func (c *Client) Migratable() []int64 {
	st, err := c.FetchState()
	if err != nil {
		return nil
	}
	return st.Migratable
}

// PrefetchAdapter implements sched.Prefetcher over the wire (POST
// /runner/prefetch): warm the adapter on the intended decode target
// while the prefill runs. Best-effort; transport failures report false.
// Idempotent so a resubmitted hint stays one hint.
func (c *Client) PrefetchAdapter(id lora.ModelID, _ time.Duration) bool {
	var reply PrefetchReply
	if err := c.postJSONIdem("/runner/prefetch", PrefetchRequest{Model: int64(id)}, &reply); err != nil {
		return false
	}
	return reply.Accepted
}
