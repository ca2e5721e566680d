package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSet is one directory of results: per workload, the runs in file-name
// order.
type runSet map[string][]result

// loadSet reads every <workload>-<tag>.json in dir; each file's last
// non-empty line is one run's result.
func loadSet(dir string) (runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	set := make(runSet)
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		i := strings.LastIndex(name, "-")
		if i <= 0 {
			return nil, fmt.Errorf("%s: want <workload>-<tag>.json", p)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		set[name[:i]] = append(set[name[:i]], r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	return set, nil
}

// summary is one metric of one workload in one set.
type summary struct {
	values      []float64
	q1, med, q3 float64
}

func summarize(runs []result, metric string) (summary, bool) {
	var s summary
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return s, false
		}
		s.values = append(s.values, m.Value)
	}
	if len(s.values) == 0 {
		return s, false
	}
	sorted := append([]float64(nil), s.values...)
	s.q1, s.med, s.q3 = quartiles(sorted)
	return s, true
}

// quartiles are the first, second and third quartiles by the exclusive
// method of Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// verdict classifies set B against set A for one end-to-end metric.
func verdict(a, b summary, m specMetric, wins, pairs int) string {
	if a.med == 0 {
		return "unresolved"
	}
	worse := (b.med - a.med) / a.med
	if m.Better == "higher" {
		worse = -worse
	}
	spread := (a.q3 - a.q1) / a.med
	allBetter := true
	for _, x := range a.values {
		for _, y := range b.values {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case worse < 0 && -worse > spread && pairs > 0 && 10*wins >= 9*pairs:
		return "improved"
	case worse > m.Bound:
		return "regression"
	case spread > m.Bound && !allBetter:
		return "unresolved"
	}
	return "within bound"
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] BASE_DIR CHANGE_DIR")
		return 2
	}
	if err := compare(*specPath, fs.Arg(0), fs.Arg(1), w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	return 0
}

func compare(specPath, dirA, dirB string, out io.Writer) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	setA, err := loadSet(dirA)
	if err != nil {
		return err
	}
	setB, err := loadSet(dirB)
	if err != nil {
		return err
	}
	var names []string
	for wl := range setA {
		names = append(names, wl)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(out)
	tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	for _, wl := range names {
		runsA, runsB := setA[wl], setB[wl]
		if len(runsB) == 0 {
			fmt.Fprintf(tw, "%s: no runs in %s\n", wl, dirB)
			continue
		}
		fa, fb := failedShare(runsA), failedShare(runsB)
		same := "same"
		if fa != fb {
			same = "DIFFERENT"
		}
		fmt.Fprintf(tw, "%s: %d vs %d runs; failed share %.6f vs %.6f (%s); correct %v vs %v\n",
			wl, len(runsA), len(runsB), fa, fb, same, allCorrect(runsA), allCorrect(runsB))
		fmt.Fprintln(tw, "metric\tunit\tbase q1\tmedian\tq3\tspread\tchange q1\tmedian\tq3\tspread\tdelta\twins\tverdict")
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			a, okA := summarize(runsA, m.Name)
			c, okB := summarize(runsB, m.Name)
			if !okA || !okB {
				continue
			}
			wins, pairs := pairWins(a.values, c.values, m.Better)
			v := "-"
			if m.Bound > 0 {
				v = verdict(a, c, m, wins, pairs)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%s\t%.4g\t%.4g\t%.4g\t%s\t%s\t%d/%d\t%s\n",
				m.Name, m.Unit, a.q1, a.med, a.q3, pct(a.q3-a.q1, a.med),
				c.q1, c.med, c.q3, pct(c.q3-c.q1, c.med), pct(c.med-a.med, a.med), wins, pairs, v)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return bw.Flush()
}

// pairWins counts the pairs (i-th run of each set) the change wins.
func pairWins(a, b []float64, better string) (wins, pairs int) {
	for i := 0; i < len(a) && i < len(b); i++ {
		pairs++
		if (better == "lower" && b[i] < a[i]) || (better == "higher" && b[i] > a[i]) {
			wins++
		}
	}
	return wins, pairs
}

func failedShare(runs []result) float64 {
	var f, n int
	for _, r := range runs {
		f += r.Failed
		n += r.Attempted
	}
	if n == 0 {
		return 0
	}
	return float64(f) / float64(n)
}

func allCorrect(runs []result) bool {
	for _, r := range runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

func pct(x, base float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*x/base)
}
