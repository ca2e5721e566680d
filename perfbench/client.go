package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"relm"
	"relm/internal/service"
)

// request kinds whose client-observed latency is reported.
const (
	kindNone = iota
	kindCreate
	kindCreateWarm
	kindSuggest
	kindObserve
)

// serveStats gathers what the serve clients measured.
type serveStats struct {
	create, suggest, observe samples // client-observed, every request (us)
	on, off                  samples // suggest+observe in traced / untraced slices
	eval                     samples // traced: client-side simulator runs

	done samples // one per session run to its stopping rule

	mu          sync.Mutex
	records     []*sessionRecord
	rounds      int    // rounds completed by all clients
	atRounds    int    // when rounds reaches this, onRounds runs
	onRounds    func() // reads the program's peak resident set
	ratios      []float64
	simSec      []float64
	tracedEvals int
	journaled   int // requests that journal one event: create, suggest, observe, close
	observed    int
}

// client is one closed-loop serve client: one goroutine, one connection.
type client struct {
	idx  int
	base string
	hc   *http.Client
	mark bool // tag traced requests for the node's handler wrapper
	seq  uint64
	// traced are the client's tagged requests: latency by sequence number,
	// joined with the node's handler times after the run.
	traced map[uint64]float64
	sl     slicer
	st     *serveStats
	rep    *report
	opt    map[optKey]float64
	idFor  func(p plan) string // session ID to ask for ("" lets the program mint one)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do sends one request. It decodes a 2xx JSON body into out and records the
// client-observed latency of timed kinds.
func (c *client) do(method, path string, in, out any, kind int) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	start := time.Now()
	traced := kind != kindNone && c.sl.on(start)
	if traced && c.mark {
		c.seq++
		req.Header.Set(hdrTrace, fmt.Sprintf("%d:%d:%d", c.idx, c.seq, kind))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf))
	}
	if out != nil {
		if err := json.Unmarshal(buf, out); err != nil {
			return fmt.Errorf("%s %s: decode: %v", method, path, err)
		}
	}
	d := us(time.Since(start))
	switch kind {
	case kindCreate, kindCreateWarm:
		c.st.create.add(d)
	case kindSuggest:
		c.st.suggest.add(d)
	case kindObserve:
		c.st.observe.add(d)
	}
	if kind == kindSuggest || kind == kindObserve {
		if traced {
			c.st.on.add(d)
		} else if c.sl.trace {
			c.st.off.add(d)
		}
	}
	if traced && c.mark {
		if c.traced == nil {
			c.traced = make(map[uint64]float64)
		}
		c.traced[c.seq] = d
	}
	return nil
}

func toJSON(c relm.Config) service.ConfigJSON {
	return service.ConfigJSON{
		ContainersPerNode: c.ContainersPerNode,
		TaskConcurrency:   c.TaskConcurrency,
		CacheCapacity:     c.CacheCapacity,
		ShuffleCapacity:   c.ShuffleCapacity,
		NewRatio:          c.NewRatio,
		SurvivorRatio:     c.SurvivorRatio,
	}
}

func fromJSON(c service.ConfigJSON) relm.Config {
	return relm.Config{
		ContainersPerNode: c.ContainersPerNode,
		TaskConcurrency:   c.TaskConcurrency,
		CacheCapacity:     c.CacheCapacity,
		ShuffleCapacity:   c.ShuffleCapacity,
		NewRatio:          c.NewRatio,
		SurvivorRatio:     c.SurvivorRatio,
	}
}

// runRounds drives whole serve rounds back to back until end has passed.
func (c *client) runRounds(seed uint64, end time.Time) {
	for r := 0; time.Now().Before(end); r++ {
		for _, p := range serveRound(seed, c.idx, r) {
			c.runSession(p)
		}
		c.st.mu.Lock()
		c.st.rounds++
		hook := c.st.rounds == c.st.atRounds && c.st.onRounds != nil
		c.st.mu.Unlock()
		if hook {
			c.st.onRounds()
		}
	}
}

// runSession drives one remote session: every suggestion is measured on
// the client's own simulator Evaluator, outside the timed request.
func (c *client) runSession(p plan) *sessionRecord {
	rec := &sessionRecord{plan: p}
	err := c.drive(rec)
	if err != nil {
		rec.failed = true
		c.rep.logError(err)
	} else {
		for _, err := range []error{checkConfigs(rec), checkBest(rec)} {
			if err != nil {
				c.rep.problem("%v", err)
			}
		}
	}
	c.rep.op(rec.failed)

	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.st.records = append(c.st.records, rec)
	if !rec.failed && rec.done() {
		c.st.done.add(1)
		c.st.simSec = append(c.st.simSec, rec.simSec)
		if rec.best != nil {
			c.st.ratios = append(c.st.ratios, *rec.best/c.opt[optKey{p.Workload, p.Cluster}])
		}
	}
	return rec
}

func (c *client) drive(rec *sessionRecord) error {
	p := rec.plan
	cl, wl, err := resolve(p)
	if err != nil {
		return err
	}
	ev := relm.NewEvaluator(cl, wl, p.Seed)
	create := service.CreateRequest{Backend: p.Backend, Workload: p.Workload, Cluster: p.Cluster, Seed: p.Seed}
	if c.idFor != nil {
		create.ID = c.idFor(p)
	}
	kind := kindCreate
	if p.Warm {
		// The client's fingerprint: Table 6 statistics of a default run.
		res, prof := relm.Simulate(cl, wl, relm.NewSpace(cl, wl).Default(), p.Seed)
		stats := relm.GenerateStats(prof)
		create.WarmStart, create.Stats, create.DefaultRuntimeSec = true, &stats, res.RuntimeSec
		kind = kindCreateWarm
	}
	var st service.StatusResponse
	if err := c.do(http.MethodPost, "/v1/sessions", create, &st, kind); err != nil {
		return err
	}
	journaled, observed := 1, 0
	defer func() {
		c.st.mu.Lock()
		c.st.journaled += journaled
		c.st.observed += observed
		c.st.mu.Unlock()
	}()
	rec.id, rec.node, rec.warmStarted = st.ID, st.Node, st.WarmStarted
	path := "/v1/sessions/" + rec.id
	for steps := 0; ; steps++ {
		if steps > maxDirectSteps {
			return fmt.Errorf("session %s did not stop within %d steps", rec.id, maxDirectSteps)
		}
		var sug service.SuggestResponse
		if err := c.do(http.MethodPost, path+"/suggest", nil, &sug, kindSuggest); err != nil {
			return err
		}
		journaled++
		cfg := fromJSON(sug.Config)
		rec.sugs = append(rec.sugs, cfg)
		rec.dones = append(rec.dones, sug.Done)
		if sug.Done || (p.Fate == fateMid && len(rec.obs) >= p.Stop) {
			break
		}
		start := time.Now()
		s := ev.Eval(cfg)
		if c.sl.on(start) {
			c.st.eval.add(us(time.Since(start)))
			c.st.mu.Lock()
			c.st.tracedEvals++
			c.st.mu.Unlock()
		}
		stats := relm.GenerateStats(s.Profile)
		obs := service.ObserveRequest{
			Config:     toJSON(cfg),
			RuntimeSec: s.RuntimeSec,
			Aborted:    s.Result.Aborted,
			GCOverhead: s.Result.GCOverhead,
			Stats:      &stats,
		}
		var ack service.StatusResponse
		if err := c.do(http.MethodPost, path+"/observe", obs, &ack, kindObserve); err != nil {
			return err
		}
		journaled++
		observed++
		rec.obs = append(rec.obs, sent{Config: cfg, RuntimeSec: s.RuntimeSec, Aborted: s.Result.Aborted})
		rec.simSec += s.RuntimeSec
		rec.evals, rec.best = ack.Evals, nil
		if ack.Best != nil {
			b := ack.Best.RuntimeSec
			rec.best = &b
		}
	}
	if p.Fate == fateClose {
		if err := c.do(http.MethodDelete, path, nil, nil, kindNone); err != nil {
			return err
		}
		journaled++
		rec.closed = true
	}
	return nil
}

// logError prints the first few request failures to stderr.
func (r *report) logError(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errors++
	if r.errors <= 10 {
		fmt.Fprintln(os.Stderr, "request failed:", err)
	}
}
