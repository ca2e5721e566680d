// Package router is the stateless HTTP front door of a multi-node tuning
// deployment: it partitions sessions across N relm-serve backends by
// rendezvous (highest-random-weight) hashing on the session ID, proxies the
// whole /v1/sessions lifecycle to each session's home node, fans out and
// merges the cluster-wide read endpoints (/v1/sessions, /v1/metrics,
// /v1/repository), and health-checks every backend with exponential
// backoff.
//
// Rendezvous hashing keeps the router stateless: the owner of a session is
// a pure function of (session ID, set of healthy nodes), so any number of
// router replicas agree on placement without a shared ring, and removing a
// node remaps only that node's sessions. The router mints session IDs on
// create (the backends honour them via Spec.ID) so the routing key exists
// before the session does.
//
// Sessions leave a node one way, whether it is drained (POST
// /v1/cluster/drain/{node}) or dies and its replica is promoted: the node
// — or the replica holder — returns a hand-off package of each session's
// create spec and full history, and the router re-creates every session
// under its original ID on its new rendezvous owner, replays its history
// there so the tuner is bit-exact, then imports the node's model
// repository into the survivors (see handoff.go).
package router

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
)

// Backend names one relm-serve node. Name is the node identity the backend
// was started with (-node-id); the health check cross-verifies it against
// the identity the node reports, catching a router pointed at the wrong
// process.
type Backend struct {
	Name string
	URL  string
}

// Options configures a Router. Zero values select sensible defaults.
type Options struct {
	// Backends is the set of relm-serve nodes to partition sessions over.
	Backends []Backend
	// CheckInterval is the healthy-node poll period (default 2s). Failing
	// nodes are polled with exponential backoff from CheckInterval up to
	// BackoffMax (default 30s).
	CheckInterval time.Duration
	BackoffMax    time.Duration
	// FailAfter is how many consecutive health-check failures mark a node
	// unhealthy (default 2). One successful check marks it healthy again.
	FailAfter int
	// Timeout bounds each proxied backend request (default 15s). Session
	// hand-off (drain, promotion) uses 4x this per request, since a drain
	// or promote call returns every session the node held.
	Timeout time.Duration
	// Transport overrides the backend HTTP transport (tests, benchmarks).
	Transport http.RoundTripper
	// Logf, when non-nil, receives health-transition and drain log lines.
	Logf func(format string, args ...any)
	// RetryBudget is how many additional candidates a routed request may be
	// retried on after its first choice fails at the transport level or
	// answers 503-draining (default 2). The budget bounds worst-case
	// latency: a request never waits on more than 1+RetryBudget backends.
	RetryBudget int
	// BreakerThreshold is how many consecutive data-path transport failures
	// open a backend's circuit breaker (default 3). An open breaker admits
	// no data-path traffic; after BreakerProbe (doubling up to
	// BreakerProbeMax on repeated failure, defaults 1s/30s) one half-open
	// probe request is admitted, and its success closes the breaker.
	BreakerThreshold int
	BreakerProbe     time.Duration
	BreakerProbeMax  time.Duration
	// Promote enables automatic fail-over: when a backend dies without
	// draining, the router promotes its replica on a surviving follower and
	// re-creates the lost sessions (requires -replicate-to on the
	// backends).
	Promote bool
	// Obs is the stage-latency registry (router.pick / router.proxy /
	// router.fanout). Created when nil, so instrumentation is always live.
	Obs *obs.Registry
	// SlowLog, when > 0, logs any request slower than this span-by-span
	// through Logf.
	SlowLog time.Duration
}

func (o *Options) fill() {
	if o.CheckInterval == 0 {
		o.CheckInterval = 2 * time.Second
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.FailAfter == 0 {
		o.FailAfter = 2
	}
	if o.Timeout == 0 {
		o.Timeout = 15 * time.Second
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 2
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerProbe == 0 {
		o.BreakerProbe = time.Second
	}
	if o.BreakerProbeMax == 0 {
		o.BreakerProbeMax = 30 * time.Second
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
}

// node is the router's view of one backend. All mutable fields behind mu.
type node struct {
	name string
	base *url.URL

	mu        sync.Mutex
	healthy   bool
	draining  bool
	fails     int
	sessions  int
	lastErr   string
	lastCheck time.Time

	// Circuit breaker over the data path (see breaker.go).
	brState   int
	brFails   int
	brProbing bool
	brUntil   time.Time
	brDelay   time.Duration
	brOpens   uint64
	retries   uint64

	// Fail-over bookkeeping (see promote.go). promoted is sticky: a node
	// that died and was promoted away stays promoted even if its process
	// revives — its data lives elsewhere now and a revived copy is stale.
	promoting bool
	promoted  bool
}

func (n *node) snapshot() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{
		Name:         n.name,
		URL:          n.base.String(),
		Healthy:      n.healthy,
		Draining:     n.draining,
		Sessions:     n.sessions,
		Fails:        n.fails,
		LastError:    n.lastErr,
		LastCheck:    n.lastCheck,
		Breaker:      breakerWord(n.brState),
		BreakerOpens: n.brOpens,
		Retries:      n.retries,
		Promoted:     n.promoted,
	}
}

// eligible reports whether the node may receive traffic.
func (n *node) eligible() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy && !n.draining
}

// suspect marks a node unhealthy after a failed proxy attempt, without
// waiting for the health checker to notice.
func (n *node) suspect(err error, failAfter int) {
	n.mu.Lock()
	n.healthy = false
	if n.fails < failAfter {
		n.fails = failAfter
	}
	n.lastErr = err.Error()
	n.mu.Unlock()
}

// NodeStatus is the wire form of one backend's state (GET /v1/cluster).
type NodeStatus struct {
	Name      string    `json:"name"`
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	Draining  bool      `json:"draining,omitempty"`
	Sessions  int       `json:"sessions"`
	Fails     int       `json:"fails,omitempty"`
	LastError string    `json:"last_error,omitempty"`
	LastCheck time.Time `json:"last_check,omitzero"`
	// Breaker is the node's circuit-breaker state (closed/open/half-open);
	// BreakerOpens counts trips, Retries counts requests retried away from
	// this node onto another candidate.
	Breaker      string `json:"breaker"`
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	Retries      uint64 `json:"retries,omitempty"`
	// Promoted reports the node's replica was promoted after it died; a
	// revived process under this name holds stale state.
	Promoted bool `json:"promoted,omitempty"`
}

// Router partitions tuning sessions across backends. It is an http.Handler;
// all methods are safe for concurrent use.
type Router struct {
	opts  Options
	nodes []*node
	// client serves lifecycle proxying and fan-outs; drainClient gives a
	// session hand-off (drain, promotion) the time to move every session.
	client      *http.Client
	drainClient *http.Client
	mux         http.Handler
	quit        chan struct{}
	wg          sync.WaitGroup
	closeOnce   sync.Once

	// Observability: request tracer plus the stage histograms, resolved
	// once at construction so the data path never takes a registry lock.
	tracer     *obs.Tracer
	histPick   *obs.Histogram
	histProxy  *obs.Histogram
	histFanout *obs.Histogram

	// Fail-over accounting (see promote.go).
	promotions atomic.Uint64
	promoMu    sync.Mutex
	lastPromo  *PromotionReport
}

// New builds a Router over opts.Backends and starts its health checkers.
// Call Close to stop them.
func New(opts Options) (*Router, error) {
	opts.fill()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	r := &Router{
		opts: opts,
		client: &http.Client{
			Timeout:   opts.Timeout,
			Transport: opts.Transport,
		},
		drainClient: &http.Client{
			Timeout:   4 * opts.Timeout,
			Transport: opts.Transport,
		},
		quit: make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, b := range opts.Backends {
		if b.Name == "" {
			return nil, fmt.Errorf("router: backend %q has no name", b.URL)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("router: duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		u, err := url.Parse(b.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: backend %s: bad URL %q", b.Name, b.URL)
		}
		r.nodes = append(r.nodes, &node{name: b.Name, base: u})
	}
	r.tracer = obs.NewTracer("router", opts.SlowLog, opts.Logf)
	r.histPick = opts.Obs.Histogram("router.pick")
	r.histProxy = opts.Obs.Histogram("router.proxy")
	r.histFanout = opts.Obs.Histogram("router.fanout")
	r.mux = r.buildMux()
	for _, n := range r.nodes {
		r.wg.Add(1)
		go r.healthLoop(n)
	}
	return r, nil
}

// Close stops the health checkers.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.quit) })
	r.wg.Wait()
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

func (r *Router) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// --- placement -------------------------------------------------------------

// score is the rendezvous weight of placing key on the named node: FNV-1a
// over "name\x00key" pushed through a splitmix64 finalizer. The finalizer
// matters: raw FNV of short strings leaves the name's contribution parked
// in the high bits, so one node would outscore the rest for almost every
// key. The owner of a key is the eligible node with the highest score, so
// every router replica agrees on placement statelessly and removing a node
// remaps only the keys it owned.
func score(name, key string) uint64 {
	// FNV-1a inlined: hash/fnv allocates its state on every New64a, and
	// score runs once per node per routed request.
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		x ^= uint64(name[i])
		x *= prime
	}
	x *= prime // the \x00 separator (XOR with 0 is identity)
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= prime
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// candidates returns the given nodes ordered by descending rendezvous score
// for key (ties broken by name, so ordering is total).
func candidates(nodes []*node, key string) []*node {
	out := append([]*node(nil), nodes...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := score(out[i].name, key), score(out[j].name, key)
		if si != sj {
			return si > sj
		}
		return out[i].name < out[j].name
	})
	return out
}

// eligibleNodes snapshots the nodes currently accepting data-path
// traffic: healthy, not draining, and with breaker capacity (closed, or
// due a half-open probe).
func (r *Router) eligibleNodes() []*node {
	now := time.Now()
	out := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n.eligible() && n.brAvailable(now) {
			out = append(out, n)
		}
	}
	return out
}

// pick returns the owner of key among the eligible nodes (nil when none).
func (r *Router) pick(key string) *node {
	now := time.Now()
	var best *node
	var bestScore uint64
	for _, n := range r.nodes {
		if !n.eligible() || !n.brAvailable(now) {
			continue
		}
		s := score(n.name, key)
		if best == nil || s > bestScore || (s == bestScore && n.name < best.name) {
			best, bestScore = n, s
		}
	}
	return best
}

func (r *Router) nodeByName(name string) *node {
	for _, n := range r.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// mintID generates a cluster-unique session ID: the routing key must exist
// before the session does, so the router (not the backend) assigns it.
func mintID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("router: crypto/rand failed: %v", err))
	}
	return fmt.Sprintf("s-%x", b)
}

// --- health checking -------------------------------------------------------

// backendHealth is the backend /healthz body the checker reads.
type backendHealth struct {
	OK       bool   `json:"ok"`
	Sessions int    `json:"sessions"`
	Node     string `json:"node"`
	Draining bool   `json:"draining"`
}

// healthLoop polls one backend: every CheckInterval while it answers, with
// exponential backoff (doubling up to BackoffMax) while it does not. A node
// is marked unhealthy after FailAfter consecutive failures and healthy
// again on the first success.
func (r *Router) healthLoop(n *node) {
	defer r.wg.Done()
	timer := time.NewTimer(0) // first check immediately
	defer timer.Stop()
	delay := r.opts.CheckInterval
	for {
		select {
		case <-r.quit:
			return
		case <-timer.C:
		}
		err := r.checkNode(n)
		n.mu.Lock()
		wasHealthy := n.healthy
		if err == nil {
			n.fails = 0
			n.healthy = true
			n.lastErr = ""
			delay = r.opts.CheckInterval
		} else {
			n.fails++
			n.lastErr = err.Error()
			if n.fails >= r.opts.FailAfter {
				n.healthy = false
			}
			delay = min(r.opts.CheckInterval<<min(n.fails, 16), r.opts.BackoffMax)
		}
		n.lastCheck = time.Now()
		isHealthy := n.healthy
		n.mu.Unlock()
		if wasHealthy != isHealthy {
			r.logf("router: node %s %s (%v)", n.name, healthWord(isHealthy), err)
		}
		if !isHealthy && r.opts.Promote {
			// Health-check death (not drain) is the promotion trigger.
			// maybePromote single-flights per node and no-ops once done; a
			// failed attempt retries on the next failed check.
			r.maybePromote(n)
		}
		timer.Reset(delay)
	}
}

func healthWord(healthy bool) string {
	if healthy {
		return "healthy"
	}
	return "unhealthy"
}

// checkNode performs one health probe, cross-verifying the node identity
// and adopting a backend-initiated drain.
func (r *Router) checkNode(n *node) error {
	resp, err := r.client.Get(n.base.JoinPath("/healthz").String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var h backendHealth
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("healthz body: %w", err)
	}
	if !h.OK {
		return fmt.Errorf("healthz reports not ok")
	}
	if h.Node != "" && h.Node != n.name {
		return fmt.Errorf("identity mismatch: configured %q, node reports %q", n.name, h.Node)
	}
	n.mu.Lock()
	n.sessions = h.Sessions
	if h.Draining {
		n.draining = true // a node never un-drains
	}
	n.mu.Unlock()
	return nil
}

// --- proxying --------------------------------------------------------------

// send issues one backend request and returns status + body. ctx bounds
// the request and carries the trace whose ID is propagated to the backend.
func (r *Router) send(ctx context.Context, client *http.Client, n *node, method, path, query string, body []byte) (int, []byte, http.Header, error) {
	u := *n.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = query
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		out.Header.Set("Content-Type", "application/json")
	}
	// Propagate the trace ID (minted or adopted by the middleware) so the
	// backend's spans join this request's trace.
	if id := obs.TraceFrom(ctx).ID(); id != "" {
		out.Header.Set(obs.TraceHeader, id)
	}
	resp, err := client.Do(out)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, buf, resp.Header, nil
}

// writeProxied passes a backend response through, stamping the serving
// node on the X-Relm-Node response header.
func writeProxied(w http.ResponseWriter, n *node, status int, buf []byte, hdr http.Header) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	// Keep the retriability marker: a replayed 503 without Retry-After
	// would look terminal to the client.
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Relm-Node", n.name)
	w.WriteHeader(status)
	w.Write(buf)
}

// miss remembers a non-final answer seen during a candidate walk (404,
// draining 503, retriable 503) so the most truthful one can be replayed if
// no candidate serves the request.
type miss struct {
	n      *node
	status int
	buf    []byte
	hdr    http.Header
}

// handleSession routes one /v1/sessions/{id}... request to the session's
// rendezvous owner — with a fallback walk. The owner is candidate 0, but a
// session can legitimately live on a lower candidate: it was placed while
// the owner was unhealthy or draining, and the owner has since recovered.
// So a 404 from the owner does not end the search — the remaining eligible
// candidates are tried in rendezvous order and the session is served from
// wherever it actually lives; only when every eligible node reports 404 is
// the session truly gone (and the owner's 404 is what the client sees).
// The walk costs extra hops only on 404s — the healthy path is one hop.
//
// Failures spend retry budget: a transport error or a 503-draining answer
// moves on to the next candidate at most RetryBudget times, so a request
// never waits on more than 1+RetryBudget slow backends. 404s don't spend
// budget — the node answered fast, it just doesn't hold the session.
func (r *Router) handleSession(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	pickStart := time.Now()
	cands := candidates(r.eligibleNodes(), id)
	r.histPick.Record(time.Since(pickStart))
	if len(cands) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no healthy backend"})
		return
	}
	var body []byte
	if req.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(io.LimitReader(req.Body, 4<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "read body: " + err.Error()})
			return
		}
	}
	var notFound, draining, retriable *miss
	var lastErr error
	retries := 0
	for _, n := range cands {
		status, buf, hdr, err := r.sendTracked(r.client, req, n, req.Method, req.URL.Path, req.URL.RawQuery, body)
		if err != nil {
			if errors.Is(err, errBreakerOpen) {
				continue // breaker race: skipping costs no budget
			}
			n.suspect(err, r.opts.FailAfter)
			lastErr = fmt.Errorf("node %s: %w", n.name, err)
			retries++
			if retries > r.opts.RetryBudget {
				break
			}
			n.retried()
			continue
		}
		if status == http.StatusNotFound {
			if notFound == nil {
				notFound = &miss{n: n, status: status, buf: buf, hdr: hdr}
			}
			continue
		}
		if isDraining503(status, buf) || isRetriable503(status, hdr) {
			if isDraining503(status, buf) {
				if draining == nil {
					draining = &miss{n: n, status: status, buf: buf, hdr: hdr}
				}
			} else if retriable == nil {
				retriable = &miss{n: n, status: status, buf: buf, hdr: hdr}
			}
			retries++
			if retries > r.opts.RetryBudget {
				break
			}
			n.retried()
			continue
		}
		writeProxied(w, n, status, buf, hdr)
		return
	}
	// A remembered retriable 503 wins over 404s from the other candidates:
	// it came from the node that actually holds the session (a candidate
	// without it answers 404 even while degraded), so replaying the 404
	// would misreport a live-but-unwritable session as gone — and turn a
	// retriable fault into a terminal answer.
	if retriable != nil {
		writeProxied(w, retriable.n, retriable.status, retriable.buf, retriable.hdr)
		return
	}
	if notFound != nil {
		writeProxied(w, notFound.n, notFound.status, notFound.buf, notFound.hdr)
		return
	}
	if draining != nil {
		writeProxied(w, draining.n, draining.status, draining.buf, draining.hdr)
		return
	}
	if lastErr == nil {
		lastErr = errors.New("no backend admitted the request")
	}
	writeJSON(w, http.StatusBadGateway, map[string]any{"error": "all backends unreachable: " + lastErr.Error()})
}

// handleCreate places a new session: it mints the session ID (honouring a
// client-supplied one), picks the owner by rendezvous hash, and injects the
// ID into the create body so the backend adopts it. A backend that fails at
// the transport level is marked suspect and the next candidate tried — a
// create is not bound to any node until it succeeds somewhere.
func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(req.Body, 4<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "read body: " + err.Error()})
		return
	}
	fields := make(map[string]any)
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &fields); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad request body: " + err.Error()})
			return
		}
	}
	id, _ := fields["id"].(string)
	if id == "" {
		id = mintID()
		fields["id"] = id
	}
	body, err := json.Marshal(fields)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "encode body: " + err.Error()})
		return
	}
	pickStart := time.Now()
	cands := candidates(r.eligibleNodes(), id)
	r.histPick.Record(time.Since(pickStart))
	if len(cands) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no healthy backend"})
		return
	}
	var lastErr error
	var refused *miss
	retries := 0
	for _, n := range cands {
		status, buf, hdr, err := r.sendTracked(r.client, req, n, http.MethodPost, "/v1/sessions", "", body)
		if err != nil {
			if errors.Is(err, errBreakerOpen) {
				continue
			}
			n.suspect(err, r.opts.FailAfter)
			lastErr = fmt.Errorf("node %s: %w", n.name, err)
			r.logf("router: create %s on %s failed, trying next candidate: %v", id, n.name, err)
			retries++
			if retries > r.opts.RetryBudget {
				break
			}
			n.retried()
			continue
		}
		if (isDraining503(status, buf) || isRetriable503(status, hdr)) && retries < r.opts.RetryBudget {
			// Draining or journal-degraded: a create is not bound to any
			// node until it succeeds, so simply place it on the next
			// candidate. The refusal is remembered in case every candidate
			// refuses — replaying a retriable 503 beats a generic 502.
			if refused == nil {
				refused = &miss{n: n, status: status, buf: buf, hdr: hdr}
			}
			retries++
			n.retried()
			lastErr = fmt.Errorf("node %s: refused create (status %d)", n.name, status)
			continue
		}
		if ct := hdr.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.Header().Set("X-Relm-Node", n.name)
		w.WriteHeader(status)
		w.Write(buf)
		return
	}
	if refused != nil {
		writeProxied(w, refused.n, refused.status, refused.buf, refused.hdr)
		return
	}
	if lastErr == nil {
		lastErr = errors.New("no backend admitted the request")
	}
	writeJSON(w, http.StatusBadGateway, map[string]any{"error": "all backends unreachable: " + lastErr.Error()})
}

// buildMux wires the routes, wrapped in the tracing middleware so every
// request carries a trace and lands in the recent-trace ring.
func (r *Router) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", r.handleCreate)
	mux.HandleFunc("GET /v1/sessions", r.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", r.handleSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", r.handleSession)
	mux.HandleFunc("GET /v1/sessions/{id}/history", r.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/suggest", r.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/observe", r.handleSession)
	mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	mux.HandleFunc("GET /v1/traces", r.handleTraces)
	mux.HandleFunc("GET /metrics", r.handleProm)
	mux.HandleFunc("GET /v1/repository", r.handleRepository)
	mux.HandleFunc("GET /v1/repository/export", r.handleRepoExport)
	mux.HandleFunc("POST /v1/repository/import", r.handleRepoImport)
	mux.HandleFunc("GET /v1/cluster", r.handleCluster)
	mux.HandleFunc("POST /v1/cluster/drain/{node}", r.handleDrain)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	// Fault-injection control for the router process itself (router.proxy
	// schedules, e.g. injected partitions between router and backends).
	mux.Handle("/v1/faults", fault.Handler())
	return r.tracer.Middleware(mux)
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	out := make([]NodeStatus, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n.snapshot())
	}
	resp := map[string]any{
		"nodes":            out,
		"promotions_total": r.promotions.Load(),
	}
	r.promoMu.Lock()
	if r.lastPromo != nil {
		resp["last_promotion"] = r.lastPromo
	}
	r.promoMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz answers 200 while at least one backend can take traffic,
// 503 otherwise — a load balancer in front of router replicas keys on it.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy := len(r.eligibleNodes())
	code := http.StatusOK
	if healthy == 0 {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ok":      healthy > 0,
		"nodes":   len(r.nodes),
		"healthy": healthy,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf)
	w.Write([]byte("\n"))
}
