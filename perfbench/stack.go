package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"punica/internal/remote"
	"punica/internal/sched"
	"punica/internal/serve"
)

// listener serves one handler on a loopback port the benchmark owns.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// listen starts serving h. With h2c the listener also speaks unencrypted
// HTTP/2, which the load generator uses to multiplex every stream over
// one connection.
func listen(h http.Handler, h2c bool) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	if h2c {
		var p http.Protocols
		p.SetHTTP1(true)
		p.SetUnencryptedHTTP2(true)
		srv.Protocols = &p
		srv.HTTP2 = &http.HTTP2Config{MaxConcurrentStreams: 4096}
	}
	l := &listener{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = srv.Serve(ln)
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// h2cClient is the load generator's client: unencrypted HTTP/2 with
// prior knowledge, at most maxConns connections to the stack.
func h2cClient(maxConns int) *http.Client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{
		Protocols:       &p,
		MaxConnsPerHost: maxConns,
		HTTP2:           &http.HTTP2Config{MaxConcurrentStreams: 4096},
	}}
}

// stack is one built serving deployment behind the benchmark's
// listeners.
type stack struct {
	url       string // user-facing base URL
	runners   []*listener
	server    *serve.Server    // saturate only
	frontend  *remote.Frontend // chat only
	remoteRun []*remote.Runner
	listeners []*listener
}

// buildStack assembles the workload's deployment: engines, scheduler,
// listeners, up to the first healthy answer. wrapUser and wrapRunner,
// when non-nil, interpose the traced run's handler wrappers.
func buildStack(cfg servingConfig, client *http.Client,
	wrapUser, wrapRunner func(http.Handler) http.Handler) (*stack, error) {
	if wrapUser == nil {
		wrapUser = func(h http.Handler) http.Handler { return h }
	}
	if wrapRunner == nil {
		wrapRunner = func(h http.Handler) http.Handler { return h }
	}
	st := &stack{}
	var user http.Handler
	if cfg.chat {
		var urls []string
		for i := 0; i < servingGPUs; i++ {
			r := remote.NewRunner(fmt.Sprintf("runner-%02d", i), engineConfig(0), cfg.speedup)
			st.remoteRun = append(st.remoteRun, r)
			l, err := listen(wrapRunner(r.Handler()), false)
			if err != nil {
				st.close()
				return nil, err
			}
			st.runners = append(st.runners, l)
			urls = append(urls, l.url)
		}
		st.frontend = remote.NewFrontendWithOptions(urls, remote.FrontendOptions{})
		user = st.frontend.Handler()
	} else {
		st.server = serve.New(serve.Config{
			NumGPUs:   servingGPUs,
			Engine:    engineConfig(0),
			Speedup:   cfg.speedup,
			Admission: sched.AdmissionConfig{MaxQueue: cfg.admissionCap},
		})
		user = st.server.Handler()
	}
	l, err := listen(wrapUser(user), true)
	if err != nil {
		st.close()
		return nil, err
	}
	st.listeners = append(st.listeners, l)
	st.url = l.url
	if err := st.healthy(client); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// healthy waits for the first 200 from the user-facing /healthz and,
// on chat, from every runner.
func (st *stack) healthy(client *http.Client) error {
	urls := []string{st.url}
	for _, r := range st.runners {
		urls = append(urls, r.url)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, u := range urls {
		c := client
		if i > 0 {
			c = http.DefaultClient // runners speak HTTP/1.1, as the frontend's client does
		}
		for {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
			resp, err := c.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if ctx.Err() != nil {
				return fmt.Errorf("stack at %s never answered /healthz", u)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (st *stack) close() {
	for _, l := range st.listeners {
		l.close()
	}
	if st.frontend != nil {
		st.frontend.Close()
	}
	if st.server != nil {
		st.server.Close()
	}
	for _, l := range st.runners {
		l.close()
	}
	for _, r := range st.remoteRun {
		r.Close()
	}
}

// finalStats are the end-of-run public counters of either topology.
type finalStats struct {
	queuePeak int
	rejected  int64
	drainRate float64
	retries   int64
	steps     int64
	tokens    int64
	adapters  int
}

// frontendStats is the subset of the frontend's /v1/stats the benchmark
// reads.
type frontendStats struct {
	Runners        []remote.State `json:"runners"`
	QueuePeak      int            `json:"queue_peak"`
	Rejected       int64          `json:"admission_rejected"`
	TenantRejected int64          `json:"admission_tenant_rejected"`
	HTTP429        int64          `json:"http_429"`
	Retries        int64          `json:"retries"`
}

// stats reads the deployment's counters: serve.Server.Snapshot in
// process, the frontend's /v1/stats (which gathers every runner's
// /runner/state) on chat.
func (st *stack) stats(client *http.Client) (finalStats, error) {
	var fs finalStats
	if st.server != nil {
		s := st.server.Snapshot()
		fs.queuePeak = s.QueuePeak
		fs.rejected = s.Rejected + s.TenantRejected
		fs.drainRate = s.DrainRate
		for _, g := range s.GPUs {
			fs.steps += g.Steps
			fs.tokens += g.Tokens
			fs.adapters += g.Adapters
		}
		return fs, nil
	}
	resp, err := client.Get(st.url + "/v1/stats")
	if err != nil {
		return fs, err
	}
	defer resp.Body.Close()
	var s frontendStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return fs, fmt.Errorf("frontend /v1/stats: %w", err)
	}
	fs.queuePeak = s.QueuePeak
	fs.rejected = s.Rejected + s.TenantRejected
	fs.retries = s.Retries
	for _, r := range s.Runners {
		fs.steps += r.Steps
		fs.tokens += r.Tokens
		fs.adapters += len(r.Adapters)
	}
	return fs, nil
}
