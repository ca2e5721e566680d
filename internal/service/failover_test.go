package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relm/internal/store"
)

// These tests are the promotion half of fail-over at the Manager level:
// ExtractHandoff replays a (copied) replica directory exactly like crash
// recovery, and a successor manager rebuilt from the hand-off package must
// be bit-exact with the lost one.

// copyDir clones a store directory — the stand-in for a fully caught-up
// replica (the shipper is byte-exact, see internal/replica).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// driveSessions builds a journaled manager with a few active remote
// sessions (plus suggestions outstanding), and returns everything a
// successor must reproduce.
func driveSessions(t *testing.T, dir string) (ids []string, histories map[string][]HistoryEntry, nextSuggest map[string]string) {
	t.Helper()
	fs, err := store.OpenFile(dir, store.FileOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Backend: "bo", Workload: "K-means", Seed: 3, MaxIterations: 8},
		{Backend: "gbo", Workload: "SortByKey", Seed: 4, MaxIterations: 8},
		{Backend: "ddpg", Workload: "PageRank", Seed: 5, MaxSteps: 8},
	}
	histories = make(map[string][]HistoryEntry)
	nextSuggest = make(map[string]string)
	for i, spec := range specs {
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		for step := 0; step < 3; step++ {
			cfg, done, err := m.Suggest(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			obs := measure(t, spec.Cluster, spec.Workload, Observation{Config: cfg}, uint64(70*i+step))
			if _, err := m.Observe(st.ID, obs); err != nil {
				t.Fatal(err)
			}
		}
		hist, err := m.History(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		histories[st.ID] = hist
		// Leave a suggestion outstanding — the kill happens mid-loop.
		cfg, _, err := m.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		nextSuggest[st.ID] = fmt.Sprintf("%+v", cfg)
	}
	crash(m)
	return ids, histories, nextSuggest
}

// recreateFromHandoff replays a hand-off package into a fresh in-memory
// manager the way a promoting router does: create under the original ID
// with the packaged prior, then re-drive the recorded suggest/observe
// interleaving.
func recreateFromHandoff(t *testing.T, rep HandoffReport) *Manager {
	t.Helper()
	m := NewManager(Options{Workers: 1, NodeID: "b"})
	replayHandoff(t, m, rep)
	return m
}

// replayHandoff re-creates and replays every session of a hand-off
// package into successor m.
func replayHandoff(t *testing.T, m *Manager, rep HandoffReport) {
	t.Helper()
	for _, hs := range rep.Sessions {
		spec := hs.Spec
		spec.ID = hs.ID
		if _, err := m.Create(spec); err != nil {
			t.Fatalf("recreate %s: %v", hs.ID, err)
		}
		for i, h := range hs.History {
			if h.Suggested {
				if _, _, err := m.Suggest(hs.ID); err != nil {
					t.Fatalf("replay %s suggest %d: %v", hs.ID, i, err)
				}
			}
			if _, err := m.Observe(hs.ID, Observation{
				Config:     h.Config,
				RuntimeSec: h.RuntimeSec,
				Aborted:    h.Aborted,
				GCOverhead: h.GCOverhead,
				Stats:      h.Stats,
			}); err != nil {
				t.Fatalf("replay %s observe %d: %v", hs.ID, i, err)
			}
		}
	}
}

// TestPromotionReplayBitMatch is the heart of fail-over correctness: a
// successor rebuilt from the replica's hand-off package serves the same
// histories AND the same next suggestion as the killed node would have.
func TestPromotionReplayBitMatch(t *testing.T) {
	dir := t.TempDir()
	ids, histories, nextSuggest := driveSessions(t, dir)

	rep, err := ExtractHandoff(copyDir(t, dir), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sessions) != len(ids) {
		t.Fatalf("hand-off recovered %d sessions, want %d", len(rep.Sessions), len(ids))
	}
	m2 := recreateFromHandoff(t, rep)
	defer m2.Close()

	for _, id := range ids {
		hist, err := m2.History(id)
		if err != nil {
			t.Fatal(err)
		}
		if !historiesEqual(hist, histories[id]) {
			t.Fatalf("session %s: replayed history differs", id)
		}
		cfg, _, err := m2.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", cfg); got != nextSuggest[id] {
			t.Fatalf("session %s: successor suggests %s, dead node would have suggested %s", id, got, nextSuggest[id])
		}
	}
}

// TestPromotionTornTail: the primary was killed mid-append (or the
// follower mid-ingest), so the replica's active segment ends in a torn
// line. Promotion must truncate it and recover every complete record —
// the same guarantee local crash recovery gives.
func TestPromotionTornTail(t *testing.T) {
	dir := t.TempDir()
	ids, histories, _ := driveSessions(t, dir)

	replica := copyDir(t, dir)
	segs, err := store.ListSegmentFiles(replica)
	if err != nil || len(segs) == 0 {
		t.Fatalf("list segments: %v", err)
	}
	active := filepath.Join(replica, store.SegmentFileName(segs[len(segs)-1].Index))
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999999,"type":"observe","id":"s`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := ExtractHandoff(replica, "a")
	if err != nil {
		t.Fatalf("torn tail must replay, got %v", err)
	}
	if len(rep.Sessions) != len(ids) {
		t.Fatalf("recovered %d sessions, want %d", len(rep.Sessions), len(ids))
	}
	for _, hs := range rep.Sessions {
		if !historiesEqual(hs.History, histories[hs.ID]) {
			t.Fatalf("session %s: torn tail corrupted the recovered history", hs.ID)
		}
	}
}

// TestPromotionMidRotationPrefix: the replica caught only a byte prefix of
// the log (the primary died mid-rotation, before the tail shipped). The
// prefix must replay cleanly — fewer observations, no errors.
func TestPromotionMidRotationPrefix(t *testing.T) {
	dir := t.TempDir()
	ids, _, _ := driveSessions(t, dir)

	replica := copyDir(t, dir)
	segs, err := store.ListSegmentFiles(replica)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(filepath.Join(replica, store.SegmentFileName(last.Index)), last.Bytes/2); err != nil {
		t.Fatal(err)
	}

	rep, err := ExtractHandoff(replica, "a")
	if err != nil {
		t.Fatalf("prefix replica must replay, got %v", err)
	}
	if len(rep.Sessions) == 0 || len(rep.Sessions) > len(ids) {
		t.Fatalf("prefix recovered %d sessions, want 1..%d", len(rep.Sessions), len(ids))
	}
}

// TestPromotionSealedCorruptionIsLoud: flipping bytes inside a SEALED
// replica segment is not a crash artifact — it is data loss, and
// promotion must refuse loudly instead of serving silently shortened
// histories.
func TestPromotionSealedCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	driveSessions(t, dir)

	replica := copyDir(t, dir)
	segs, err := store.ListSegmentFiles(replica)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment, got %d segments", len(segs))
	}
	sealed := filepath.Join(replica, store.SegmentFileName(segs[0].Index))
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	// Break the first record: sealed segments are read strictly, so one
	// undecodable line must fail the whole promotion.
	data[0] = 'x'
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ExtractHandoff(replica, "a"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("sealed corruption replayed silently: err=%v", err)
	}
}

// TestCreateWithExplicitPrior covers the hand-off seeding path: Spec.Prior
// bypasses repository matching, counts as a warm start, survives restarts
// (journaled as a warm event), and two managers created from the same
// prior+history suggest identically.
func TestCreateWithExplicitPrior(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}

	// Harvest a donor session's history into prior points.
	donor, err := m1.Create(Spec{Backend: "bo", Workload: "K-means", Seed: 7, MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		cfg, _, err := m1.Suggest(donor.ID)
		if err != nil {
			t.Fatal(err)
		}
		obs := measure(t, "", "K-means", Observation{Config: cfg}, uint64(step))
		if _, err := m1.Observe(donor.ID, obs); err != nil {
			t.Fatal(err)
		}
	}
	crashRep, err := ExtractHandoff(copyDir(t, dir), "a")
	if err != nil {
		t.Fatal(err)
	}
	// An active non-warm session must still ride its own auto path or, for
	// remote mode, replay by history — the donor is remote, so Prior stays
	// empty and History carries everything.
	if len(crashRep.Sessions) != 1 || len(crashRep.Sessions[0].History) != 3 {
		t.Fatalf("donor hand-off: %+v", crashRep.Sessions)
	}

	prior := historyPrior(mustSession(t, m1, donor.ID))
	st, err := m1.Create(Spec{Backend: "gbo", Workload: "K-means", Seed: 8, MaxIterations: 6,
		Prior: prior, PriorSource: "K-means", PriorDistance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.WarmStarted {
		t.Fatal("explicit prior did not count as a warm start")
	}
	cfg1, _, err := m1.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m1)

	// Restart: the journaled warm event must restore the same seeding.
	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st2, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.WarmStarted {
		t.Fatal("warm start lost across restart")
	}
	cfg2, _, err := m2.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", cfg1) != fmt.Sprintf("%+v", cfg2) {
		t.Fatalf("prior-seeded suggestion drifted across restart: %+v vs %+v", cfg1, cfg2)
	}
}

// TestAutoSessionHandoffCarriesPrior: auto sessions are not replayed
// observation by observation — their own history becomes the successor's
// prior and a worker re-drives them. The crashed WAL is journaled by hand
// (create + observes, no terminal event — exactly what a mid-flight worker
// leaves behind) so the test never races a live worker to the stopping
// rule.
func TestAutoSessionHandoffCarriesPrior(t *testing.T) {
	// Generate two measured configurations with a throwaway remote session
	// of the same backend/workload/seed.
	gen := NewManager(Options{Workers: 1})
	gst, err := gen.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var obsns []Observation
	for i := 0; i < 2; i++ {
		cfg, _, err := gen.Suggest(gst.ID)
		if err != nil {
			t.Fatal(err)
		}
		o := measure(t, "", "SVM", Observation{Config: cfg}, uint64(i))
		if _, err := gen.Observe(gst.ID, o); err != nil {
			t.Fatal(err)
		}
		obsns = append(obsns, o)
	}
	crash(gen)

	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Backend: "bo", Workload: "SVM", Mode: ModeAuto, Seed: 2, MaxIterations: 40}
	now := time.Now()
	if _, err := fs.Append(&store.Event{Type: store.EventCreate, ID: "a-sess-1", Time: now, Spec: specRecord(spec)}); err != nil {
		t.Fatal(err)
	}
	for i, o := range obsns {
		ev := &store.Event{Type: store.EventObserve, ID: "a-sess-1", Time: now, N: i, Obs: &store.Observation{
			Config: o.Config, RuntimeSec: o.RuntimeSec, Aborted: o.Aborted, Stats: o.Stats,
		}}
		if _, err := fs.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ExtractHandoff(dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sessions) != 1 {
		t.Fatalf("hand-off sessions: %+v", rep.Sessions)
	}
	hs := rep.Sessions[0]
	if hs.Spec.Mode != ModeAuto || len(hs.Spec.Prior) == 0 {
		t.Fatalf("auto hand-off must carry its history as a prior: mode=%q prior=%d", hs.Spec.Mode, len(hs.Spec.Prior))
	}
	if len(hs.Spec.Prior) != len(hs.History) {
		t.Fatalf("prior has %d points, history %d entries", len(hs.Spec.Prior), len(hs.History))
	}
	if hs.Spec.WarmStart {
		t.Fatal("explicit prior must disable repository re-matching")
	}
}

// mustSession digs the live session struct out of a manager (test-only).
func mustSession(t *testing.T, m *Manager, id string) *Session {
	t.Helper()
	for _, sh := range m.shards {
		sh.mu.Lock()
		if s, ok := sh.sessions[id]; ok {
			sh.mu.Unlock()
			return s
		}
		sh.mu.Unlock()
	}
	t.Fatalf("session %s not found", id)
	return nil
}

// waitEvals blocks until a session has at least n recorded observations.
func waitEvals(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := 2000
	for i := 0; i < deadline; i++ {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Evals >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %d evals", id, n)
}
