package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"relm"
	"relm/internal/service"
)

// testPlans cover every policy and every fate.
var testPlans = []plan{
	{Backend: "bo", Workload: "WordCount", Cluster: "A", Seed: 3, Fate: fateDone},
	{Backend: "relm", Workload: "K-means", Cluster: "B", Seed: 4, Fate: fateDone},
	{Backend: "gbo", Workload: "SVM", Cluster: "A", Seed: 5, Fate: fateMid, Stop: 2},
	{Backend: "ddpg", Workload: "PageRank", Cluster: "B", Seed: 6, Fate: fateClose},
}

// served runs testPlans against an in-process durable node and returns
// the node and the client's records.
func served(t *testing.T) (*durableNode, string, []*sessionRecord) {
	t.Helper()
	dir := t.TempDir()
	n, err := startDurable(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	c := &client{base: n.base, hc: newHTTPClient(), st: &serveStats{}, rep: rep, opt: map[optKey]float64{}}
	t.Cleanup(c.hc.CloseIdleConnections)
	var recs []*sessionRecord
	for _, p := range testPlans {
		recs = append(recs, c.runSession(p))
	}
	if rep.failed > 0 || rep.problemCount > 0 {
		t.Fatalf("clean sessions: %d failed, problems %v", rep.failed, rep.problems)
	}
	return n, dir, recs
}

// clone copies a record so a test can plant a fault in it.
func clone(r *sessionRecord) *sessionRecord {
	c := *r
	c.sugs = append([]relm.Config(nil), r.sugs...)
	c.dones = append([]bool(nil), r.dones...)
	c.obs = append([]sent(nil), r.obs...)
	if r.best != nil {
		b := *r.best
		c.best = &b
	}
	return &c
}

func wantErr(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: the check reported nothing", what)
	}
}

func TestChecksCatchPlantedFaults(t *testing.T) {
	n, dir, recs := served(t)
	open := recs[0] // bo, run to done
	mid := recs[2]  // gbo, left mid-flight

	t.Run("configs", func(t *testing.T) {
		for _, r := range recs {
			if err := checkConfigs(r); err != nil {
				t.Fatal(err)
			}
		}
		bad := clone(open)
		bad.sugs[1].ContainersPerNode = 0
		wantErr(t, "invalid suggestion", checkConfigs(bad))
	})

	t.Run("best", func(t *testing.T) {
		bad := clone(open)
		*bad.best += 1
		wantErr(t, "best off by one second", checkBest(bad))
		bad = clone(open)
		bad.evals--
		wantErr(t, "evals one short", checkBest(bad))
		bad = clone(open)
		bad.obs[0].RuntimeSec, bad.obs[0].Aborted = *open.best/2, false
		wantErr(t, "client sent a better runtime", checkBest(bad))
	})

	t.Run("library", func(t *testing.T) {
		for _, r := range recs {
			if err := checkLibrary(r, nil); err != nil {
				t.Fatal(err)
			}
		}
		bad := clone(open)
		bad.sugs[2], bad.sugs[3] = bad.sugs[3], bad.sugs[2]
		wantErr(t, "swapped suggestions", checkLibrary(bad, nil))
		bad = clone(mid)
		bad.dones[len(bad.dones)-1] = true
		wantErr(t, "flipped done flag", checkLibrary(bad, nil))
		bad = clone(open)
		bad.plan.Seed++
		wantErr(t, "other seed", checkLibrary(bad, nil))
	})

	t.Run("handover", func(t *testing.T) {
		c := &client{base: n.base, hc: newHTTPClient(), st: &serveStats{}, rep: newReport()}
		defer c.hc.CloseIdleConnections()
		// Read the next suggestion first: the check's own suggest call
		// must not change what a second read returns.
		if err := handedOver(c, mid); err != nil {
			t.Fatal(err)
		}
		bad := clone(mid)
		bad.obs = bad.obs[:1]
		wantErr(t, "history one short", handedOver(c, bad))
		bad = clone(mid)
		bad.sugs[len(bad.sugs)-1].NewRatio++
		wantErr(t, "other next suggestion", handedOver(c, bad))
		wantErr(t, "closed session", handedOver(c, recs[3]))
	})

	n.close()
	fs, err := relm.OpenFileSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := relm.OpenServiceManager(relm.ServiceOptions{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	t.Run("reopen", func(t *testing.T) {
		for _, r := range recs {
			if err := checkReopen(r, m); err != nil {
				t.Fatal(err)
			}
		}
		bad := clone(open)
		bad.obs[1].RuntimeSec++
		wantErr(t, "history entry changed", checkReopen(bad, m))
		bad = clone(mid)
		bad.sugs[len(bad.sugs)-1].TaskConcurrency++
		wantErr(t, "next suggestion changed", checkReopen(bad, m))
		bad = clone(open)
		bad.closed = true
		wantErr(t, "closed session still there", checkReopen(bad, m))
		bad = clone(recs[3])
		bad.closed = false
		wantErr(t, "open session gone", checkReopen(bad, m))
		wantErr(t, "lost observation", checkReopen(open, dropLast{m}))
	})
}

// dropLast is a reopened manager that lost each session's last observation.
type dropLast struct{ *service.Manager }

func (d dropLast) History(id string) ([]service.HistoryEntry, error) {
	h, err := d.Manager.History(id)
	if len(h) > 0 {
		h = h[:len(h)-1]
	}
	return h, err
}

// TestMetricNamesMatchSpec keeps the printed metrics and BENCHMARK.json in
// step.
func TestMetricNamesMatchSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list  []specMetric
		units map[string]string
	}{{sp.EndToEnd, e2eUnits}, {sp.PerLayer, layerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, printed unit %q", m.Name, m.Unit, u)
			}
		}
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := specMetric{Name: "x", Better: "lower", Bound: 0.1}
	base := summary{values: []float64{100, 101, 99, 100}, q1: 99.25, med: 100, q3: 100.75}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{100, 100, 101, 99}, "within bound"},
		{[]float64{120, 121, 119, 120}, "regression"},
		{[]float64{80, 81, 79, 80}, "improved"},
	} {
		s := summary{values: c.change}
		s.q1, s.med, s.q3 = quartiles(append([]float64(nil), c.change...))
		wins, pairs := pairWins(base.values, s.values, m.Better)
		if got := verdict(base, s, m, wins, pairs); got != c.want {
			t.Errorf("change %v: verdict %q, want %q", c.change, got, c.want)
		}
	}
	wide := summary{values: []float64{50, 150, 100, 100}, q1: 62.5, med: 100, q3: 137.5}
	s := summary{values: []float64{105, 104, 106, 105}, q1: 104.25, med: 105, q3: 105.75}
	if got := verdict(wide, s, m, 0, 4); !strings.HasPrefix(got, "unresolved") {
		t.Errorf("wide base: verdict %q, want unresolved", got)
	}
}
