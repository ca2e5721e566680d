// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time, checks every output the
// program returned against a computation made apart from the serving path,
// and prints one JSON result line:
//
//	perfbench -bin DIR -work DIR --workload tune-direct --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same load
// with the benchmark's own timers around each layer's public seams and
// reports the per-layer metrics instead. "perfbench compare A B" compares
// two directories of saved results. perfbench/run.sh builds everything
// from the checkout and is the entry point; README.md describes the
// workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string // relm-serve and relm-router binaries
	workDir  string // scratch space for data directories and logs
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "node":
			os.Exit(nodeMain(os.Args[2:]))
		case "direct-rss":
			os.Exit(directRSSMain(os.Args[2:]))
		}
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "tune-direct, serve-durable or serve-cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.binDir, "bin", "", "directory holding the relm-serve and relm-router binaries")
	flag.StringVar(&o.workDir, "work", "", "directory for run files (data directories, node logs)")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if o.workDir == "" {
		return fmt.Errorf("-work is required")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	var rep *report
	switch o.workload {
	case "tune-direct":
		rep, err = runTuneDirect(o)
	case "serve-durable", "serve-cluster":
		if o.binDir == "" {
			return fmt.Errorf("%s needs -bin", o.workload)
		}
		o.binDir, err = filepath.Abs(o.binDir)
		if err != nil {
			return err
		}
		if o.workload == "serve-durable" {
			rep, err = runServeDurable(o)
		} else {
			rep, err = runServeCluster(o)
		}
	default:
		return fmt.Errorf("unknown workload %q (want tune-direct, serve-durable or serve-cluster)", o.workload)
	}
	if err != nil {
		return err
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res, err := rep.result(o.trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// deadline is the end of a timed phase that starts now.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds) * time.Second)
}
