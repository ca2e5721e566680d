package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"relm/internal/obs"
	"relm/internal/service"
)

// victimNode is the node serve-cluster drains at the end; survivorNode
// takes its sessions over.
const (
	victimNode   = "b"
	survivorNode = "a"
)

// cluster is relm-router in front of two relm-serve nodes that replicate
// to each other (fsync off, replica factor 1).
type cluster struct {
	nodes  map[string]*proc
	urls   map[string]string
	router *proc
	base   string
}

func (c *cluster) stop() {
	if c.router != nil {
		c.router.stop()
	}
	for _, p := range c.nodes {
		p.stop()
	}
}

func (c *cluster) peakMB() float64 {
	total := c.router.hwmMB()
	for _, p := range c.nodes {
		total += p.hwmMB()
	}
	return total
}

// startCluster starts the nodes, then the router, and returns once the
// router sees every backend healthy.
func startCluster(o options, dir string) (*cluster, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	c := &cluster{nodes: make(map[string]*proc), urls: make(map[string]string)}
	names := []string{survivorNode, victimNode}
	var peers []string
	for i, n := range names {
		c.urls[n] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		peers = append(peers, n+"="+c.urls[n])
	}
	c.base = fmt.Sprintf("http://127.0.0.1:%d", ports[2])
	for i, n := range names {
		p, err := startProc(filepath.Join(o.binDir, "relm-serve"), filepath.Join(dir, n+".log"),
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-node-id", n, "-advertise", c.urls[n],
			"-data-dir", filepath.Join(dir, n), "-replicate-to", strings.Join(peers, ","), "-log-level", "warn")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes[n] = p
	}
	for _, n := range names {
		if err := waitHealthy(c.urls[n]+"/healthz", 20*time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	c.router, err = startProc(filepath.Join(o.binDir, "relm-router"), filepath.Join(dir, "router.log"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[2]), "-backends", strings.Join(peers, ","),
		"-check-interval", "100ms", "-log-level", "warn")
	if err != nil {
		c.stop()
		return nil, err
	}
	if err := c.waitAllHealthy(20 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

type clusterView struct {
	Nodes []struct {
		Name    string `json:"name"`
		Healthy bool   `json:"healthy"`
		Retries uint64 `json:"retries"`
	} `json:"nodes"`
}

func (c *cluster) waitAllHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	end := time.Now().Add(limit)
	for {
		var v clusterView
		if err := getJSON(hc, c.base+"/v1/cluster", &v); err == nil && len(v.Nodes) == len(c.nodes) {
			healthy := 0
			for _, n := range v.Nodes {
				if n.Healthy {
					healthy++
				}
			}
			if healthy == len(v.Nodes) {
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("router backends not healthy after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(buf, out)
}

// idPools hands out client-chosen session IDs whose rendezvous owner is
// known. The owner of an ID that does not exist yet is the node the
// router answers its 404 from (X-Relm-Node).
type idPools struct {
	hc    *http.Client
	base  string
	seed  uint64
	next  [2]int
	pools [2]map[string][]string // per client: owner node -> unused IDs
}

func (ip *idPools) probe(c int) error {
	id := fmt.Sprintf("p%d-c%d-%d", ip.seed, c, ip.next[c])
	ip.next[c]++
	resp, err := ip.hc.Get(ip.base + "/v1/sessions/" + id)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	node := resp.Header.Get("X-Relm-Node")
	if resp.StatusCode != http.StatusNotFound || node == "" {
		return fmt.Errorf("probe %s: status %d node %q", id, resp.StatusCode, node)
	}
	ip.pools[c][node] = append(ip.pools[c][node], id)
	return nil
}

// fill probes until client c has n IDs owned by each node.
func (ip *idPools) fill(c, n int) error {
	for len(ip.pools[c][victimNode]) < n || len(ip.pools[c][survivorNode]) < n {
		if err := ip.probe(c); err != nil {
			return err
		}
	}
	return nil
}

// take returns an unused ID of client c owned by node, probing more if the
// pool ran dry. Each client calls it from its own goroutine only.
func (ip *idPools) take(c int, node string) (string, error) {
	for len(ip.pools[c][node]) == 0 {
		if err := ip.probe(c); err != nil {
			return "", err
		}
	}
	id := ip.pools[c][node][0]
	ip.pools[c][node] = ip.pools[c][node][1:]
	return id, nil
}

// nodeState is what the benchmark reads from the nodes and the router
// around the timed phase.
type nodeState struct {
	stages        map[string]obs.Snapshot // merged over both nodes
	proxy         obs.Snapshot            // router.proxy
	retries       uint64
	walBytes      float64
	walEvents     float64
	batches       float64
	batchedEvents float64
	ingestBytes   float64
}

func (c *cluster) readState(hc *http.Client) (nodeState, error) {
	s := nodeState{stages: make(map[string]obs.Snapshot)}
	for name, u := range c.urls {
		var m service.MetricsResponse
		if err := getJSON(hc, u+"/v1/metrics", &m); err != nil {
			return s, fmt.Errorf("node %s metrics: %w", name, err)
		}
		for stage, h := range m.StageHist {
			snap := s.stages[stage]
			snap.Merge(h.Snapshot())
			s.stages[stage] = snap
		}
		s.walBytes += float64(m.WALBytes)
		s.walEvents += float64(m.WALEvents)
		s.batches += float64(m.CommitBatches)
		s.batchedEvents += float64(m.BatchedEvents)
		s.ingestBytes += float64(m.ReplicaIngestBytes)
	}
	resp, err := hc.Get(c.base + "/metrics")
	if err != nil {
		return s, err
	}
	s.proxy, err = parsePromStage(resp.Body, "relm_router_stage_latency_seconds", "router.proxy")
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	var v clusterView
	if err := getJSON(hc, c.base+"/v1/cluster", &v); err != nil {
		return s, err
	}
	for _, n := range v.Nodes {
		s.retries += n.Retries
	}
	return s, nil
}

// parsePromStage rebuilds one stage's histogram from the Prometheus text
// the router serves (cumulative power-of-two buckets, in seconds).
func parsePromStage(r io.Reader, family, stage string) (obs.Snapshot, error) {
	var s obs.Snapshot
	upper := make(map[string]int, obs.NumBuckets)
	for b := range obs.NumBuckets - 1 {
		upper[strconv.FormatFloat(obs.BucketUpperNs(b)/1e9, 'g', -1, 64)] = b
	}
	prefix := fmt.Sprintf("%s_bucket{stage=%q,le=", family, stage)
	var prev uint64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			if v, ok := strings.CutPrefix(line, fmt.Sprintf("%s_sum{stage=%q} ", family, stage)); ok {
				sec, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return s, err
				}
				s.SumNs = uint64(sec * 1e9)
			}
			continue
		}
		le, val, ok := strings.Cut(rest, "} ")
		if !ok {
			return s, fmt.Errorf("bad bucket line %q", line)
		}
		cum, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return s, err
		}
		le = strings.Trim(le, `"`)
		if le == "+Inf" {
			s.Buckets[obs.NumBuckets-1] += cum - prev
			s.Count = cum
			continue
		}
		b, ok := upper[le]
		if !ok {
			return s, fmt.Errorf("unknown bucket bound %q", le)
		}
		s.Buckets[b] = cum - prev
		prev = cum
	}
	return s, sc.Err()
}

func runServeCluster(o options) (*report, error) {
	rep := newReport()
	opt, err := gridOptimum()
	if err != nil {
		return nil, err
	}
	var cl *cluster
	var setups []float64
	for k := range setupReps {
		dir := filepath.Join(o.workDir, fmt.Sprintf("cluster-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := startCluster(o, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupReps-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	defer cl.stop()

	mon := &http.Client{Timeout: 10 * time.Second}
	defer mon.CloseIdleConnections()
	ids := &idPools{hc: mon, base: cl.base, seed: o.seed}
	for c := range 2 {
		ids.pools[c] = make(map[string][]string)
		// About the sessions a client runs in the timed phase; take
		// probes more if a run needs them.
		if err := ids.fill(c, 4*len(serveMix)*o.seconds); err != nil {
			return nil, err
		}
	}

	before, err := cl.readState(mon)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sl := slicer{start: start, trace: o.trace}
	st := &serveStats{}
	peak := peakAt(o, st, cl.peakMB)
	end := deadline(o)
	ph := phase{start: start, end: end}
	var wg sync.WaitGroup
	for i := range 2 {
		c := &client{idx: i, base: cl.base, hc: newHTTPClient(), sl: sl, st: st, rep: rep, opt: opt}
		c.idFor = func(p plan) string {
			node := survivorNode
			if p.Victim {
				node = victimNode
			}
			id, err := ids.take(c.idx, node)
			if err != nil {
				rep.logError(err)
			}
			return id
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			c.runRounds(o.seed, end)
		}()
	}
	// The monitor scrapes the router's merged metrics about once a second.
	var scrapes samples
	quit := make(chan struct{})
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				t0 := time.Now()
				if err := getJSON(mon, cl.base+"/v1/metrics", nil); err != nil {
					rep.logError(err)
					continue
				}
				scrapes.add(us(time.Since(t0)) / 1e3)
			}
		}
	}()
	wg.Wait()
	close(quit)
	mwg.Wait()
	after, err := cl.readState(mon)
	if err != nil {
		return nil, err
	}
	peakMB := peak()
	stages := deltas(before.stages, after.stages)

	drainChecks(cl, mon, st.records, rep)
	steps := checkLibraryAll(st.records, rep)

	setServeE2E(rep, st, ph, peakMB)
	rep.set("setup_s", median(setups))

	rep.set("sim.eval_us_p50", median(st.eval.values()))
	rep.set("sim.evals", float64(st.tracedEvals))
	setTunerSteps(rep, steps)
	setBOHists(rep, stages["acquisition"], stages["surrogate.append"], stages["surrogate.refit"])
	rep.set("handler.create_us_p50", stages["service.create"].Quantile(0.5)/1e3)
	rep.set("handler.suggest_us_p50", stages["service.suggest"].Quantile(0.5)/1e3)
	rep.set("handler.observe_us_p50", stages["service.observe"].Quantile(0.5)/1e3)
	wal := stages["wal.append"]
	rep.set("store.append_us_p50", wal.Quantile(0.5)/1e3)
	rep.set("store.append_us_p99", wal.Quantile(0.99)/1e3)
	rep.set("store.flush_wait_us_p50", stages["wal.flush_wait"].Quantile(0.5)/1e3)
	if b := after.batches - before.batches; b > 0 {
		rep.set("store.batch_mean", (after.batchedEvents-before.batchedEvents)/b)
	}
	rep.set("store.bytes_per_obs", bytesPerObs(after.walBytes, after.walEvents, st))
	proxy := delta(before.proxy, after.proxy)
	rep.set("router.overhead_us_p50", median(append(st.suggest.values(), st.observe.values()...))-proxy.Quantile(0.5)/1e3)
	rep.set("router.retries", float64(after.retries-before.retries))
	rep.set("router.scrape_ms_p50", median(scrapes.values()))
	rep.set("replica.ship_ms_p50", stages["replica.ship"].Quantile(0.5)/1e6)
	rep.set("replica.shipped_bytes", after.ingestBytes-before.ingestBytes)
	svcUs := meanUs(merged(stages, "service.suggest", "service.observe"))
	setUnattributed(rep, st, svcUs, meanUs(wal), steps)
	rep.set("trace.overhead_pct", overheadPct(st.on.values(), st.off.values()))
	return rep, nil
}

// drainChecks drains the victim node through the router, then checks every
// session it held with at least one observation: through the router it
// must have the same history and give the same next suggestion. Each
// check is one operation.
func drainChecks(cl *cluster, hc *http.Client, recs []*sessionRecord, rep *report) {
	resp, err := hc.Post(cl.base+"/v1/cluster/drain/"+victimNode, "application/json", strings.NewReader("{}"))
	if err != nil {
		rep.logError(fmt.Errorf("drain: %w", err))
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	c := &client{base: cl.base, hc: hc, st: &serveStats{}, rep: rep}
	for _, r := range recs {
		if r.failed {
			continue
		}
		if r.plan.Victim != (r.node == victimNode) {
			rep.problem("session %s placed on %s, its ID was probed for %s", r.id, r.node, map[bool]string{true: victimNode, false: survivorNode}[r.plan.Victim])
		}
		if r.node != victimNode || r.closed || len(r.obs) == 0 {
			continue
		}
		err := handedOver(c, r)
		if err != nil {
			rep.logError(fmt.Errorf("drain hand-off: %w", err))
		}
		rep.op(err != nil)
	}
}

// handedOver compares a drained session's history and next suggestion,
// read through the router, with the client's record.
func handedOver(c *client, r *sessionRecord) error {
	var hist []service.HistoryJSON
	if err := c.do(http.MethodGet, "/v1/sessions/"+r.id+"/history", nil, &hist, kindNone); err != nil {
		return err
	}
	got := make([]sent, len(hist))
	for i, h := range hist {
		got[i] = sent{Config: fromJSON(h.Config), RuntimeSec: h.RuntimeSec, Aborted: h.Aborted}
	}
	if err := sameHistory(r, got); err != nil {
		return err
	}
	var sug service.SuggestResponse
	if err := c.do(http.MethodPost, "/v1/sessions/"+r.id+"/suggest", nil, &sug, kindNone); err != nil {
		return err
	}
	return sameNext(r, fromJSON(sug.Config), sug.Done)
}
