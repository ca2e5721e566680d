package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"relm"
)

// The inputs every workload draws from: the paper's four policies, the
// five Table 2 workloads and the two evaluation clusters.
var (
	policies  = []string{"relm", "bo", "gbo", "ddpg"}
	workloads = []string{"WordCount", "SortByKey", "K-means", "SVM", "PageRank"}
	clusters  = []string{"A", "B"}
	// serveMix is one round of a serve client: the soak backend mix
	// relm 2 : bo 3 : gbo 2 : ddpg 1.
	serveMix = []string{"relm", "relm", "bo", "bo", "bo", "gbo", "gbo", "ddpg"}
)

// fate is what a serve client does with a session once it has driven it.
type fate int

const (
	fateDone  fate = iota // run to the stopping rule, leave open
	fateMid               // stop after a few observations, leave open
	fateClose             // run to the stopping rule, then close
)

// serveSlots are the fates of one serve round and whether each session is
// placed on the node serve-cluster drains at the end. Every round leaves
// exactly two sessions with observations open on that node, so the drain
// phase checks the same share of operations in every run.
var serveSlots = []struct {
	fate   fate
	victim bool
}{
	{fateClose, true}, {fateClose, true}, {fateDone, true}, {fateMid, true},
	{fateClose, false}, {fateDone, false}, {fateDone, false}, {fateMid, false},
}

// plan is one tuning session to run.
type plan struct {
	Backend  string
	Workload string
	Cluster  string
	Seed     uint64
	Warm     bool // bo/gbo: ask for a warm start with a measured fingerprint
	Fate     fate
	Stop     int  // fateMid: observations before the client leaves
	Victim   bool // serve-cluster: placed on the node drained at the end
}

// newRand returns the PCG stream for (seed, stream...): the same seed
// always yields the same inputs, whatever the timing.
func newRand(seed uint64, stream ...uint64) *rand.Rand {
	s2 := uint64(0x9e3779b97f4a7c15)
	for _, x := range stream {
		s2 = s2*0xbf58476d1ce4e5b9 + x + 1
	}
	return rand.New(rand.NewPCG(seed, s2))
}

// directRound is round r of tune-direct: every policy × workload × cluster
// once, in a seeded order, each with a fresh seeded tuner/simulator seed.
func directRound(seed uint64, r int) []plan {
	rng := newRand(seed, 1, uint64(r))
	out := make([]plan, 0, len(policies)*len(workloads)*len(clusters))
	for _, p := range policies {
		for _, w := range workloads {
			for _, c := range clusters {
				out = append(out, plan{Backend: p, Workload: w, Cluster: c, Seed: 1 + rng.Uint64N(1_000_000)})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serveRound is round r of serve client c: the soak mix in a seeded order,
// the workload/cluster pairs in rotation, half the bo/gbo sessions
// warm-started, with the fates of serveSlots.
func serveRound(seed uint64, c, r int) []plan {
	rng := newRand(seed, 2, uint64(c), uint64(r))
	slot := rng.Perm(len(serveSlots))
	// Mix slot i of round r runs workload/cluster pair i+r+off: every ten
	// rounds each slot has run every pair once.
	pairs := len(workloads) * len(clusters)
	off := int(newRand(seed, 3, uint64(c)).IntN(pairs))
	out := make([]plan, len(serveMix))
	for i, b := range serveMix {
		s := serveSlots[slot[i]]
		pair := (i + r + off) % pairs
		p := plan{
			Backend:  b,
			Workload: workloads[pair/len(clusters)],
			Cluster:  clusters[pair%len(clusters)],
			Seed:     1 + rng.Uint64N(1_000_000),
			Fate:     s.fate,
			Victim:   s.victim,
		}
		if (b == "bo" || b == "gbo") && rng.IntN(2) == 0 {
			p.Warm = true
		}
		if p.Fate == fateMid {
			p.Stop = 1 + rng.IntN(3)
		}
		out[i] = p
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func resolve(p plan) (relm.Cluster, relm.Workload, error) {
	wl, err := relm.WorkloadByName(p.Workload)
	if err != nil {
		return relm.Cluster{}, relm.Workload{}, err
	}
	switch p.Cluster {
	case "A":
		return relm.ClusterA(), wl, nil
	case "B":
		return relm.ClusterB(), wl, nil
	}
	return relm.Cluster{}, relm.Workload{}, fmt.Errorf("unknown cluster %q", p.Cluster)
}

// libraryTuner builds the in-process tuner the service builds for the same
// cold session spec.
func libraryTuner(p plan, cl relm.Cluster, wl relm.Workload, bopts relm.BOOptions) relm.Tuner {
	bopts.Seed = p.Seed
	switch p.Backend {
	case "bo":
		return relm.NewBOTuner(cl, wl, bopts)
	case "gbo":
		return relm.NewGBOTuner(cl, wl, bopts)
	case "ddpg":
		return relm.NewDDPGTuner(cl, wl, nil, relm.DDPGOptions{Seed: p.Seed})
	}
	return relm.NewRelMStepTuner(cl, wl)
}

type optKey struct{ workload, cluster string }

// gridOptimum is the exhaustive 192-point grid optimum of every workload
// on every cluster, computed on two goroutines before any timing.
func gridOptimum() (map[optKey]float64, error) {
	var keys []optKey
	for _, w := range workloads {
		for _, c := range clusters {
			keys = append(keys, optKey{w, c})
		}
	}
	out := make(map[optKey]float64, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	next := make(chan optKey, len(keys)) // holds every key, so sends never block
	for _, k := range keys {
		next <- k
	}
	close(next)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				cl, wl, err := resolve(plan{Workload: k.workload, Cluster: k.cluster})
				var best relm.Sample
				if err == nil {
					best, _ = relm.ExhaustiveSearch(relm.NewEvaluator(cl, wl, 1))
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[k] = best.RuntimeSec
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}
