package service

import (
	"fmt"
	"reflect"
	"testing"

	"relm/internal/bo"
	"relm/internal/store"
)

// These tests pin the hand-off package both exits share: drain builds it
// from memory, promotion from a replica, and either one replayed into a
// successor must continue every session bit-exact.

// stepSession runs n suggest/observe rounds on a remote session (fewer if
// it finishes first).
func stepSession(t *testing.T, m *Manager, id string, spec Spec, n int, seed uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		cfg, done, err := m.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return
		}
		obs := measure(t, spec.Cluster, spec.Workload, Observation{Config: cfg}, seed+uint64(i))
		if _, err := m.Observe(id, obs); err != nil {
			t.Fatal(err)
		}
	}
}

// finishedModels runs one remote K-means session with the clusterStats
// fingerprint to completion and returns the repository it harvested into.
func finishedModels(t *testing.T) []bo.RepoEntry {
	t.Helper()
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	spec := Spec{Backend: "bo", Workload: "K-means", Seed: 9, MaxIterations: 2, Stats: clusterStats(), DefaultRuntimeSec: 240}
	st, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	stepSession(t, m, st.ID, spec, 40, 100)
	if st, _ := m.Get(st.ID); st.State != StateDone {
		t.Fatalf("donor session never finished: %+v", st)
	}
	return m.Repository().Entries
}

// TestHandoffDoesNotRematchWarmStart: a session that asked for a warm
// start but matched nothing at create must not be matched again on its
// successor, whose repository has since filled — it would be seeded with
// a prior the lost instance never had, and its next suggestion diverge.
func TestHandoffDoesNotRematchWarmStart(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Backend: "bo", Workload: "K-means", Seed: 3, MaxIterations: 30,
		WarmStart: true, Stats: clusterStats(), DefaultRuntimeSec: 240}
	st, err := m1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmStarted {
		t.Fatal("an empty repository matched")
	}
	stepSession(t, m1, st.ID, spec, 3, 0)
	want, _, err := m1.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m1)

	rep, err := ExtractHandoff(copyDir(t, dir), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sessions) != 1 || rep.Sessions[0].Spec.WarmStart {
		t.Fatalf("hand-off must not request a warm start: %+v", rep.Sessions)
	}

	m2 := NewManager(Options{Workers: 1, NodeID: "b"})
	defer m2.Close()
	if n := m2.ImportRepository(finishedModels(t)); n != 1 {
		t.Fatalf("imported %d models, want 1", n)
	}
	probe, err := m2.Create(Spec{Backend: "bo", Workload: "K-means", WarmStart: true, Stats: clusterStats(), DefaultRuntimeSec: 240})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.WarmStarted {
		t.Fatal("the successor's repository does not match the fingerprint")
	}

	replayHandoff(t, m2, rep)
	got, _, err := m2.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("successor suggests %+v, the lost instance would have suggested %+v", got, want)
	}
	if st2, _ := m2.Get(st.ID); st2.WarmStarted {
		t.Fatalf("successor was warm-started from its own repository: %+v", st2)
	}
}

// TestDrainMatchesExtractHandoff: a planned hand-off is at least as strong
// as an unplanned one. Drain's package, built from memory, must equal the
// one promotion builds from a copy of the node's data directory taken just
// before the drain — same sessions, specs and histories.
func TestDrainMatchesExtractHandoff(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir, store.FileOptions{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A finished remote session harvests the model the gbo session below
	// warm-starts from; a finished auto session and a closed one stay
	// behind.
	specs := []Spec{
		{Backend: "bo", Workload: "K-means", Seed: 1, MaxIterations: 2, Stats: clusterStats(), DefaultRuntimeSec: 240},
		{Backend: "gbo", Workload: "K-means", Seed: 2, MaxIterations: 30, WarmStart: true, Stats: clusterStats(), DefaultRuntimeSec: 240},
		{Backend: "bo", Workload: "SortByKey", Seed: 3, MaxIterations: 8},
		{Backend: "ddpg", Workload: "PageRank", Seed: 4, MaxSteps: 8},
		{Backend: "relm", Workload: "WordCount", Seed: 5},
		{Backend: "bo", Workload: "SVM", Seed: 6, MaxIterations: 8},
	}
	var ids []string
	for i, spec := range specs {
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		stepSession(t, m, st.ID, spec, []int{40, 3, 3, 3, 2, 2}[i], uint64(50*i))
	}
	done, warm, closed := ids[0], ids[1], ids[5]
	if err := m.CloseSession(closed); err != nil {
		t.Fatal(err)
	}
	auto, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Mode: ModeAuto, Seed: 7, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, auto.ID, StateDone)
	if st, _ := m.Get(done); st.State != StateDone {
		t.Fatalf("remote session did not finish: %+v", st)
	}
	if st, _ := m.Get(warm); !st.WarmStarted {
		t.Fatalf("gbo session did not warm-start: %+v", st)
	}

	want, err := ExtractHandoff(copyDir(t, dir), "a")
	if err != nil {
		t.Fatal(err)
	}
	got := m.Drain()
	if got.Node != "a" || len(got.Repo) != len(want.Repo) {
		t.Fatalf("drain: node %q, %d models; promotion: %d models", got.Node, len(got.Repo), len(want.Repo))
	}
	if len(got.Sessions) != len(specs)-1 || len(got.Sessions) != len(want.Sessions) {
		t.Fatalf("drain handed off %d sessions, promotion %d, want %d", len(got.Sessions), len(want.Sessions), len(specs)-1)
	}
	for i := range got.Sessions {
		if !reflect.DeepEqual(got.Sessions[i], want.Sessions[i]) {
			t.Fatalf("session %d differs:\ndrain     %+v\npromotion %+v", i, got.Sessions[i], want.Sessions[i])
		}
	}
	for _, hs := range got.Sessions {
		switch hs.ID {
		case done:
			if hs.State != StateDone {
				t.Fatalf("finished remote session handed off as %q", hs.State)
			}
		case warm:
			if len(hs.Spec.Prior) == 0 || hs.Spec.WarmStart {
				t.Fatalf("warm session must carry its prior and not re-match: %+v", hs.Spec)
			}
		case closed, auto.ID:
			t.Fatalf("session %s must not be handed off", hs.ID)
		}
	}
}
