package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"relm"
	"relm/internal/obs"
	"relm/internal/service"
)

// fillSeed fixes the sessions of the data directory serve-durable opens at
// set-up, so every run replays the same log.
const fillSeed = 20200614

// fillRounds is how many serve rounds (8 sessions each) the fill runs.
const fillRounds = 6

// durableNode is one relm-serve node assembled in-process the way
// cmd/relm-serve assembles it with -data-dir, with the
// benchmark's wrappers around the store and the handler.
type durableNode struct {
	reg          *obs.Registry
	store        *timedStore
	m            *service.Manager
	handler      *timedHandler
	srv          *http.Server
	base         string
	done         chan error
	open, replay time.Duration
}

func (n *durableNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/perfbench/") {
		n.serveBench(w, r)
		return
	}
	n.handler.ServeHTTP(w, r)
}

// startDurable opens dir and serves it on addr, returning once GET
// /healthz answers.
func startDurable(dir, addr string) (*durableNode, error) {
	reg := obs.NewRegistry()
	start := time.Now()
	fs, err := relm.OpenFileSessionStoreOptions(dir, relm.SessionStoreOptions{
		AppendHist:    reg.Histogram("wal.append"),
		FlushWaitHist: reg.Histogram("wal.flush_wait"),
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	open := time.Since(start)
	ts := &timedStore{SessionStore: fs}
	m, err := relm.OpenServiceManager(relm.ServiceOptions{Store: ts, Obs: reg})
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("replay: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		m.Close()
		return nil, err
	}
	n := &durableNode{
		reg:     reg,
		store:   ts,
		m:       m,
		handler: &timedHandler{inner: relm.NewServiceHandler(m)},
		base:    "http://" + ln.Addr().String(),
		done:    make(chan error, 1),
		open:    open,
		replay:  time.Since(start) - open,
	}
	n.srv = &http.Server{Handler: n, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.done <- n.srv.Serve(ln) }()
	if err := waitHealthy(n.base+"/healthz", 10*time.Second); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// close stops the server, waits for it, and closes the manager and store.
func (n *durableNode) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	<-n.done
	n.m.Close()
}

// nodeMain is "perfbench node -dir D -addr A": the node of a traced
// serve-durable run, serving until SIGTERM.
func nodeMain(args []string) int {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	dir := fs.String("dir", "", "data directory")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	n, err := startDurable(*dir, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench node:", err)
		return 1
	}
	<-ctx.Done()
	n.close()
	return 0
}

// waitHealthy polls url until it answers 200.
func waitHealthy(url string, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	end := time.Now().Add(limit)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("%s not healthy after %v (last error %v)", url, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// copyDir copies the regular files of src into a new directory dst and
// syncs them, so their write-back does not land in a timed phase.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fill writes the data directory serve-durable opens: fillRounds serve
// rounds from fillSeed, leaving finished, open and closed sessions.
func fill(dir string, opt map[optKey]float64) ([]*sessionRecord, error) {
	n, err := startDurable(dir, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer n.close()
	rep := newReport()
	c := &client{base: n.base, hc: newHTTPClient(), st: &serveStats{}, rep: rep, opt: opt}
	defer c.hc.CloseIdleConnections()
	for r := range fillRounds {
		for _, p := range serveRound(fillSeed, 0, r) {
			c.runSession(p)
		}
	}
	if rep.failed > 0 || rep.problemCount > 0 {
		return nil, fmt.Errorf("filling the data directory: %d failed sessions, checks: %v", rep.failed, rep.problems)
	}
	return c.st.records, nil
}

// startNode starts the node of a serve-durable run on a copy of the filled
// directory: relm-serve, or for a traced run the benchmark's own
// node (the same assembly with the wrappers).
func startNode(o options, dir string) (*proc, string, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, "", err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	var p *proc
	if o.trace {
		self, err := os.Executable()
		if err != nil {
			return nil, "", err
		}
		p, err = startProc(self, dir+".log", "node", "-dir", dir, "-addr", addr)
		if err != nil {
			return nil, "", err
		}
	} else {
		p, err = startProc(filepath.Join(o.binDir, "relm-serve"), dir+".log",
			"-addr", addr, "-data-dir", dir, "-log-level", "warn")
		if err != nil {
			return nil, "", err
		}
	}
	base := "http://" + addr
	if err := waitHealthy(base+"/healthz", 30*time.Second); err != nil {
		p.stop()
		return nil, "", err
	}
	return p, base, nil
}

func runServeDurable(o options) (*report, error) {
	rep := newReport()
	opt, err := gridOptimum()
	if err != nil {
		return nil, err
	}
	pristine := filepath.Join(o.workDir, "fill")
	fillRecs, err := fill(pristine, opt)
	if err != nil {
		return nil, err
	}

	mon := &http.Client{Timeout: 10 * time.Second}
	defer mon.CloseIdleConnections()
	var node *proc
	var base, dataDir string
	var setups, opens, replays []float64
	for k := range setupReps {
		dir := filepath.Join(o.workDir, fmt.Sprintf("data-%d", k))
		if err := copyDir(pristine, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		p, b, err := startNode(o, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if o.trace {
			var ns nodeStats
			if err := getJSON(mon, b+"/perfbench/stats", &ns); err != nil {
				p.stop()
				return nil, err
			}
			opens, replays = append(opens, ns.OpenS), append(replays, ns.ReplayS)
		}
		if k < setupReps-1 {
			p.stop()
		} else {
			node, base, dataDir = p, b, dir
		}
	}
	nodeUp := true
	defer func() {
		if nodeUp {
			node.stop()
		}
	}()

	start := time.Now()
	sl := slicer{start: start, trace: o.trace}
	var before nodeStats
	if o.trace {
		if err := postEmpty(mon, fmt.Sprintf("%s/perfbench/start?at=%d", base, start.UnixNano())); err != nil {
			return nil, err
		}
		if err := getJSON(mon, base+"/perfbench/stats", &before); err != nil {
			return nil, err
		}
	}
	st := &serveStats{}
	peak := peakAt(o, st, node.hwmMB)
	end := deadline(o)
	ph := phase{start: start, end: end}
	var wg sync.WaitGroup
	clients := make([]*client, 2)
	for i := range clients {
		c := &client{idx: i, base: base, hc: newHTTPClient(), mark: o.trace, sl: sl, st: st, rep: rep, opt: opt}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			c.runRounds(o.seed, end)
		}()
	}
	wg.Wait()
	var after nodeStats
	if o.trace {
		if err := postEmpty(mon, base+"/perfbench/stop"); err != nil {
			return nil, err
		}
		if err := getJSON(mon, base+"/perfbench/stats", &after); err != nil {
			return nil, err
		}
	}
	peakMB := peak()
	node.stop()
	nodeUp = false

	all := append(fillRecs, st.records...)
	steps := checkLibraryAll(all, rep)
	if err := reopenCheck(dataDir, all, rep); err != nil {
		return nil, err
	}

	setServeE2E(rep, st, ph, peakMB)
	rep.set("setup_s", median(setups))
	if !o.trace {
		return rep, nil
	}

	stages := deltas(snapshots(before.Stages), snapshots(after.Stages))
	rep.set("sim.eval_us_p50", median(st.eval.values()))
	rep.set("sim.evals", float64(st.tracedEvals))
	setTunerSteps(rep, steps)
	setBOHists(rep, stages["acquisition"], stages["surrogate.append"], stages["surrogate.refit"])
	var outside []float64
	for _, c := range clients {
		for _, h := range after.Handled[c.idx] {
			if lat, ok := c.traced[h.Seq]; ok {
				outside = append(outside, lat-float64(h.Ns)/1e3)
			}
		}
	}
	rep.set("http.client_us_p50", median(outside))
	for kind, name := range map[int]string{kindCreate: "create", kindCreateWarm: "create_warm", kindSuggest: "suggest", kindObserve: "observe"} {
		if kind < len(after.Kinds) {
			rep.set("handler."+name+"_us_p50", median(after.Kinds[kind]))
		}
	}
	rep.set("store.append_us_p50", quantile(after.Appends, 0.5))
	rep.set("store.append_us_p99", quantile(after.Appends, 0.99))
	rep.set("store.flush_wait_us_p50", stages["wal.flush_wait"].Quantile(0.5)/1e3)
	if b := after.Store.Batches - before.Store.Batches; b > 0 {
		rep.set("store.batch_mean", float64(after.Store.BatchedEvents-before.Store.BatchedEvents)/float64(b))
	}
	rep.set("store.bytes_per_obs", bytesPerObs(float64(after.Store.WALBytes), float64(after.Store.WALEvents), st))
	rep.set("store.open_s", median(opens))
	rep.set("service.replay_s", median(replays))
	svcUs := meanUs(merged(stages, "service.suggest", "service.observe"))
	setUnattributed(rep, st, svcUs, mean(after.Appends), steps)
	rep.set("trace.overhead_pct", overheadPct(st.on.values(), st.off.values()))
	return rep, nil
}

// reopenCheck opens the data directory through the library and checks
// every session against the client's record.
func reopenCheck(dir string, recs []*sessionRecord, rep *report) error {
	fs, err := relm.OpenFileSessionStore(dir)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	m, err := relm.OpenServiceManager(relm.ServiceOptions{Store: fs})
	if err != nil {
		fs.Close()
		return fmt.Errorf("reopen: %w", err)
	}
	defer m.Close()
	for _, r := range recs {
		if r.failed {
			continue
		}
		if err := checkReopen(r, m); err != nil {
			rep.problem("%v", err)
		}
	}
	return nil
}

func postEmpty(hc *http.Client, url string) error {
	resp, err := hc.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// peakAt makes st read the program's peak resident set once the clients
// have completed rssRounds rounds, or at the end of a run that did not.
func peakAt(o options, st *serveStats, read func() float64) func() float64 {
	var once sync.Once
	var peak float64
	get := func() { once.Do(func() { peak = read() }) }
	st.atRounds, st.onRounds = rssRounds(o), get
	return func() float64 {
		get()
		return peak
	}
}

// setServeE2E reports the end-to-end metrics both serve workloads share.
func setServeE2E(rep *report, st *serveStats, ph phase, peakMB float64) {
	rep.set("sessions_per_s", st.done.rate(ph))
	rep.set("create_us_p50", st.create.windowed(ph, 0.5))
	rep.set("suggest_us_p50", st.suggest.windowed(ph, 0.5))
	rep.set("suggest_us_p90", st.suggest.windowed(ph, 0.90))
	rep.set("observe_us_p90", st.observe.windowed(ph, 0.90))
	rep.set("observe_us_p50", st.observe.windowed(ph, 0.5))
	rep.set("tuned_over_optimum", geomean(st.ratios))
	rep.set("stress_test_s", mean(st.simSec))
	rep.set("peak_rss_mb", peakMB)
}

// bytesPerObs is the WAL written per observation: the live log's mean
// event size times the events the clients' requests journaled per
// observation (create, suggest, observe and close each journal one).
func bytesPerObs(walBytes, walEvents float64, st *serveStats) float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if walEvents == 0 || st.observed == 0 {
		return 0
	}
	return walBytes / walEvents * float64(st.journaled) / float64(st.observed)
}

// stepTimes are the library check's Suggest+Observe times per policy.
type stepTimes map[string]*samples

// checkLibraryAll runs checkLibrary on every cold session that did not
// fail, on two goroutines, and returns the tuner step times it measured.
func checkLibraryAll(recs []*sessionRecord, rep *report) stepTimes {
	steps := make(stepTimes)
	for _, p := range policies {
		steps[p] = &samples{}
	}
	work := make(chan *sessionRecord)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				if err := checkLibrary(r, steps[r.plan.Backend].add); err != nil {
					rep.problem("%v", err)
				}
			}
		}()
	}
	for _, r := range recs {
		if !r.failed && !r.plan.Warm {
			work <- r
		}
	}
	close(work)
	wg.Wait()
	return steps
}

func setTunerSteps(rep *report, steps stepTimes) {
	for _, p := range policies {
		rep.set("tuner."+p+".step_us_p50", median(steps[p].values()))
	}
}

// setUnattributed reports the share of the mean traced suggest/observe
// client latency that no layer metric covers: the service call's mean
// time minus its WAL append and the tuner's own time (half a library
// Suggest+Observe step per request). What remains is the session lock and
// the service's bookkeeping.
func setUnattributed(rep *report, st *serveStats, serviceUs, appendUs float64, steps stepTimes) {
	var all []float64
	for _, p := range policies {
		all = append(all, steps[p].values()...)
	}
	client := mean(st.on.values())
	if client == 0 {
		return
	}
	rep.set("unattributed.share_pct", 100*(serviceUs-appendUs-mean(all)/2)/client)
}
