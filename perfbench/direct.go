package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"relm"
	"relm/internal/obs"
)

// maxDirectSteps bounds one session; every policy stops well before it.
const maxDirectSteps = 500

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// slicer splits a traced run's timed phase into alternating 500ms slices
// with the benchmark's timers on and off; comparing the two gives the
// tracing overhead. Untraced runs are never on.
type slicer struct {
	start time.Time
	trace bool
}

func (s slicer) on(t time.Time) bool {
	return s.trace && (t.Sub(s.start)/(500*time.Millisecond))%2 == 0
}

// boHists are the histograms a traced BO/GBO tuner records into.
type boHists struct {
	acq, appendH, refit *obs.Histogram
}

func newBOHists() boHists {
	return boHists{acq: obs.NewHistogram(), appendH: obs.NewHistogram(), refit: obs.NewHistogram()}
}

// directStats gathers the timings of tune-direct.
type directStats struct {
	create, suggest, observe, eval samples
	stepOn, stepOff                samples
	done                           samples             // one per session run to its stopping rule
	step                           map[string]*samples // traced, per policy

	mu                   sync.Mutex
	ratios               []float64
	simSec               []float64
	tracedEvals          int
	tracedWall, tracedIn float64 // traced sessions: wall time, time inside measured calls (us)
}

func runTuneDirect(o options) (*report, error) {
	rep := newReport()
	opt, err := gridOptimum()
	if err != nil {
		return nil, err
	}

	// Set-up: building one round's tuners and simulator evaluators.
	var setups []float64
	for range setupReps {
		start := time.Now()
		for _, p := range directRound(o.seed, 0) {
			cl, wl, err := resolve(p)
			if err != nil {
				return nil, err
			}
			relm.NewEvaluator(cl, wl, p.Seed)
			libraryTuner(p, cl, wl, relm.BOOptions{})
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	st := &directStats{step: make(map[string]*samples)}
	for _, p := range policies {
		st.step[p] = &samples{}
	}
	hists := newBOHists()
	peak, err := directPeakRSS(o)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	sl := slicer{start: start, trace: o.trace}
	end := deadline(o)
	ph := phase{start: start, end: end}
	var qmu sync.Mutex
	var queue []plan
	round, n := 0, 0
	// take hands out the next session; once the deadline has passed it
	// finishes the current round and starts no new one.
	take := func() (plan, int, bool) {
		qmu.Lock()
		defer qmu.Unlock()
		if len(queue) == 0 {
			if time.Now().After(end) {
				return plan{}, 0, false
			}
			queue = directRound(o.seed, round)
			round++
		}
		p := queue[0]
		queue = queue[1:]
		n++
		return p, n, true
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p, id, ok := take()
				if !ok {
					return
				}
				runDirectSession(p, id, sl, hists, opt, st, rep)
			}
		}()
	}
	wg.Wait()

	rep.set("setup_s", median(setups))
	rep.set("sessions_per_s", st.done.rate(ph))
	rep.set("create_us_p50", st.create.windowed(ph, 0.5))
	rep.set("suggest_us_p50", st.suggest.windowed(ph, 0.5))
	rep.set("suggest_us_p90", st.suggest.windowed(ph, 0.90))
	rep.set("observe_us_p90", st.observe.windowed(ph, 0.90))
	rep.set("observe_us_p50", st.observe.windowed(ph, 0.5))
	rep.set("tuned_over_optimum", geomean(st.ratios))
	rep.set("stress_test_s", mean(st.simSec))
	rep.set("peak_rss_mb", peak)

	rep.set("sim.eval_us_p50", median(st.eval.values()))
	rep.set("sim.evals", float64(st.tracedEvals))
	for _, p := range policies {
		rep.set("tuner."+p+".step_us_p50", median(st.step[p].values()))
	}
	setBOHists(rep, hists.acq.Snapshot(), hists.appendH.Snapshot(), hists.refit.Snapshot())
	if st.tracedWall > 0 {
		rep.set("unattributed.share_pct", 100*(st.tracedWall-st.tracedIn)/st.tracedWall)
	}
	rep.set("trace.overhead_pct", overheadPct(st.stepOn.values(), st.stepOff.values()))
	return rep, nil
}

// runDirectSession drives one library tuner to its stopping rule against
// a simulator Evaluator and checks what it returned.
func runDirectSession(p plan, id int, sl slicer, hists boHists, opt map[optKey]float64, st *directStats, rep *report) {
	traced := sl.on(time.Now())
	var bopts relm.BOOptions
	if traced {
		bopts.AcquisitionHist, bopts.SurrogateAppendHist, bopts.SurrogateRefitHist = hists.acq, hists.appendH, hists.refit
	}
	t0 := time.Now()
	cl, wl, err := resolve(p)
	if err != nil {
		rep.problem("%v", err)
		rep.op(true)
		return
	}
	ev := relm.NewEvaluator(cl, wl, p.Seed)
	t := libraryTuner(p, cl, wl, bopts)
	create := time.Since(t0)
	in := create
	st.create.add(us(create))

	rec := &sessionRecord{plan: p, id: fmt.Sprintf("direct-%d", id)}
	stopped := false
	for steps := 0; steps <= maxDirectSteps; steps++ {
		a := time.Now()
		cfg := t.Suggest()
		done := t.Done()
		sd := time.Since(a)
		st.suggest.add(us(sd))
		in += sd
		rec.sugs = append(rec.sugs, cfg)
		rec.dones = append(rec.dones, done)
		if done {
			stopped = true
			break
		}
		b := time.Now()
		s := ev.Eval(cfg)
		ed := time.Since(b)
		c := time.Now()
		t.Observe(s)
		od := time.Since(c)
		in += ed + od
		st.observe.add(us(od))
		rec.obs = append(rec.obs, sent{Config: cfg, RuntimeSec: s.RuntimeSec, Aborted: s.Result.Aborted})
		rec.simSec += s.RuntimeSec
		if traced {
			st.eval.add(us(ed))
			st.step[p.Backend].add(us(sd + od))
			st.stepOn.add(us(sd + od))
		} else if sl.trace {
			st.stepOff.add(us(sd + od))
		}
	}
	wall := time.Since(t0)
	rec.evals = ev.Evals()
	if best, ok := t.Best(); ok {
		rec.best = &best.RuntimeSec
	}
	if !stopped {
		rep.problem("session %s (%s %s/%s) did not stop within %d steps", rec.id, p.Backend, p.Workload, p.Cluster, maxDirectSteps)
	}
	for _, err := range []error{checkConfigs(rec), checkBest(rec)} {
		if err != nil {
			rep.problem("%v", err)
		}
	}
	rep.op(false)
	if stopped {
		st.done.add(1)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if rec.best != nil {
		st.ratios = append(st.ratios, *rec.best/opt[optKey{p.Workload, p.Cluster}])
	}
	st.simSec = append(st.simSec, rec.simSec)
	if traced {
		st.tracedEvals += len(rec.obs)
		st.tracedWall += us(wall)
		st.tracedIn += us(in)
	}
}

// rssRounds is how many rounds of load peak_rss_mb covers: a fixed amount
// of work, so the figure does not grow with the run's throughput.
func rssRounds(o options) int {
	if o.workload == "tune-direct" {
		return max(1, o.seconds/2)
	}
	return 2 * o.seconds
}

// directPeakRSS is tune-direct's peak_rss_mb: the peak resident set of a
// child process that drives the run's first rssRounds rounds of sessions
// through the library one after another and exits. One goroutine keeps
// the figure free of the benchmark's own bookkeeping and of which
// sessions happened to overlap.
func directPeakRSS(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "direct-rss", "-seed", strconv.FormatUint(o.seed, 10), "-rounds", strconv.Itoa(rssRounds(o)))
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("direct-rss: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("direct-rss: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KB
}

// directRSSMain is "perfbench direct-rss -seed S -rounds N".
func directRSSMain(args []string) int {
	fs := flag.NewFlagSet("direct-rss", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "input seed")
	rounds := fs.Int("rounds", 1, "rounds to run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for r := range *rounds {
		for _, p := range directRound(*seed, r) {
			cl, wl, err := resolve(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench direct-rss:", err)
				return 1
			}
			relm.DriveTuner(libraryTuner(p, cl, wl, relm.BOOptions{}), relm.NewEvaluator(cl, wl, p.Seed), maxDirectSteps)
		}
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setBOHists reports the BO/GBO layer from acquisition, surrogate-append
// and surrogate-refit histograms.
func setBOHists(rep *report, acq, app, refit obs.Snapshot) {
	rep.set("bo.acquisition_us_p50", acq.Quantile(0.5)/1e3)
	rep.set("gp.append_us_p50", app.Quantile(0.5)/1e3)
	rep.set("gp.refit_us_p50", refit.Quantile(0.5)/1e3)
	rep.set("gp.appends", float64(app.Count))
	rep.set("gp.fits", float64(refit.Count))
}

// overheadPct is how much slower the median traced sample is than the
// median untraced one, in percent.
func overheadPct(on, off []float64) float64 {
	a, b := median(on), median(off)
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}
