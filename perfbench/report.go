package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Metric names and units. They match BENCHMARK.json (metrics_test.go
// checks it); a workload that does not cross a layer reports that layer's
// metric as 0.
var e2eUnits = map[string]string{
	"setup_s":            "s",
	"sessions_per_s":     "1/s",
	"create_us_p50":      "us",
	"suggest_us_p50":     "us",
	"suggest_us_p90":     "us",
	"observe_us_p90":     "us",
	"observe_us_p50":     "us",
	"tuned_over_optimum": "ratio",
	"stress_test_s":      "sim_s",
	"peak_rss_mb":        "MB",
}

var layerUnits = map[string]string{
	"sim.eval_us_p50":            "us",
	"sim.evals":                  "count",
	"tuner.relm.step_us_p50":     "us",
	"tuner.bo.step_us_p50":       "us",
	"tuner.gbo.step_us_p50":      "us",
	"tuner.ddpg.step_us_p50":     "us",
	"bo.acquisition_us_p50":      "us",
	"gp.append_us_p50":           "us",
	"gp.refit_us_p50":            "us",
	"gp.appends":                 "count",
	"gp.fits":                    "count",
	"http.client_us_p50":         "us",
	"handler.create_us_p50":      "us",
	"handler.create_warm_us_p50": "us",
	"handler.suggest_us_p50":     "us",
	"handler.observe_us_p50":     "us",
	"store.append_us_p50":        "us",
	"store.append_us_p99":        "us",
	"store.flush_wait_us_p50":    "us",
	"store.batch_mean":           "count",
	"store.bytes_per_obs":        "B",
	"store.open_s":               "s",
	"service.replay_s":           "s",
	"router.overhead_us_p50":     "us",
	"router.retries":             "count",
	"router.scrape_ms_p50":       "ms",
	"replica.ship_ms_p50":        "ms",
	"replica.shipped_bytes":      "B",
	"unattributed.share_pct":     "%",
	"trace.overhead_pct":         "%",
}

// report collects one run's counts, check failures and metric values.
type report struct {
	mu           sync.Mutex
	attempted    int
	failed       int
	problems     []string // the first 50 check failures, for stderr
	problemCount int
	errors       int // failed requests
	values       map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

// problem records a failed output check; the run reports correct=false.
func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.problemCount++
}

// op counts one attempted operation, failed or not.
func (r *report) op(failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if failed {
		r.failed++
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result renders the end-to-end metrics (trace off) or the per-layer
// metrics (trace on). A missing end-to-end value is a benchmark bug.
func (r *report) result(trace bool) (result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	units := e2eUnits
	if trace {
		units = layerUnits
	}
	out := result{
		Correct:   r.problemCount == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(units)),
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	for name, unit := range units {
		v, ok := r.values[name]
		if !ok && !trace {
			return out, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", name, v)
		}
		out.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// epoch anchors sample timestamps on the monotonic clock.
var epoch = time.Now()

// samples is a mutex-guarded list of timestamped values (durations in
// microseconds, or 1 per completed session), for exact percentiles over
// one run.
type samples struct {
	mu sync.Mutex
	xs []float64
	at []time.Duration // since epoch
}

func (s *samples) add(v float64) {
	at := time.Since(epoch)
	s.mu.Lock()
	s.xs = append(s.xs, v)
	s.at = append(s.at, at)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// window is the length of the slices a timed phase is cut into. A run
// reports the median over its full windows, so a burst of contention on
// a shared machine moves one window, not the run's figure.
const window = 2 * time.Second

// phase is a timed phase: its full windows run from start to the deadline.
type phase struct{ start, end time.Time }

// split groups the samples taken in each full window of p.
func (s *samples) split(p phase) [][]float64 {
	width := min(window, p.end.Sub(p.start))
	n := max(1, int(p.end.Sub(p.start)/width))
	out := make([][]float64, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	off := p.start.Sub(epoch)
	for i, at := range s.at {
		if at < off {
			continue
		}
		if w := int((at - off) / width); w < n {
			out[w] = append(out[w], s.xs[i])
		}
	}
	return out
}

// windowed is the median over p's windows of each window's q-quantile.
func (s *samples) windowed(p phase, q float64) float64 {
	var per []float64
	for _, w := range s.split(p) {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

// rate is the median over p's windows of the samples taken per second.
func (s *samples) rate(p phase) float64 {
	width := min(window, p.end.Sub(p.start)).Seconds()
	var per []float64
	for _, w := range s.split(p) {
		per = append(per, float64(len(w))/width)
	}
	return median(per)
}
