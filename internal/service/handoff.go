package service

import (
	"fmt"
	"sort"

	"relm/internal/bo"
	"relm/internal/store"
)

// This file builds the session hand-off package a router re-creates
// sessions from on their new owners. Promotion builds it from a dead
// node's replicated WAL: it reuses the restore machinery verbatim — a
// replica directory is a valid store directory, so replaying it is exactly
// the crash recovery the node itself would have run — but into a detached
// Manager shell that never starts goroutines or journals anything. Drain
// builds the same package from memory (Manager.Drain); both select and
// rewrite sessions through handoffLocked.

// HandoffSession is one session leaving its node — recovered from a
// replica or drained from memory: everything a successor needs to continue
// it under its original ID.
type HandoffSession struct {
	ID    string
	State string // state when the session left its node
	Evals int
	// Spec is the re-create spec: ID cleared, Prior seeded with the warm
	// start the lost instance held (or, for auto sessions, its own
	// history) so the successor resumes from equivalent optimizer state.
	Spec Spec
	// History is the full recorded experiment sequence, in order. Remote
	// sessions are replayed into the successor observation by observation
	// (each entry's Suggested bit says whether to re-arm a suggestion
	// first), reproducing the lost tuner bit-exactly.
	History []HistoryEntry
}

// HandoffReport is the product of promoting a replica or draining a node:
// the node's handed-off sessions plus its model repository.
type HandoffReport struct {
	Node     string // the node the sessions leave
	Sessions []HandoffSession
	Repo     []bo.RepoEntry
}

// ExtractHandoff replays the replica directory of a dead primary into a
// hand-off package. The directory must be fenced against further ingest
// first (replica.Set.Promote); opening recovers it exactly like a local
// restart — a torn tail in the replicated active segment is truncated,
// corruption in a sealed replica segment fails the promotion loudly.
func ExtractHandoff(dir, node string) (HandoffReport, error) {
	st, err := store.OpenFile(dir)
	if err != nil {
		return HandoffReport{}, fmt.Errorf("service: open replica: %w", err)
	}
	snap, events, err := st.Load()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return HandoffReport{}, fmt.Errorf("service: load replica: %w", err)
	}
	return BuildHandoff(snap, events, node)
}

// BuildHandoff replays a snapshot + log into a detached Manager shell and
// collects the hand-off package: every session handoffLocked selects, plus
// the repository.
func BuildHandoff(snap *store.Snapshot, events []store.Event, node string) (HandoffReport, error) {
	m := newManager(Options{})
	if _, err := m.restore(snap, events); err != nil {
		return HandoffReport{}, err
	}
	rep := HandoffReport{Node: node}
	for _, sh := range m.shards {
		for _, s := range sh.sessions {
			if hs, ok := handoffLocked(s); ok {
				rep.Sessions = append(rep.Sessions, hs)
			}
		}
	}
	sortHandoff(rep.Sessions)
	rep.Repo = append([]bo.RepoEntry(nil), m.repo.Entries...)
	return rep, nil
}

// handoffLocked renders one session as a hand-off entry — the selection
// and spec rewrite shared by promotion (BuildHandoff) and drain
// (Manager.Drain). Non-terminal sessions are handed off, and so are
// finished remote ones: replaying their history reproduces the done state
// and the last suggestion. Finished auto sessions and failed sessions stay
// behind. Callers hold s.mu or own a detached shell.
func handoffLocked(s *Session) (HandoffSession, bool) {
	switch s.state {
	case StateActive, StateQueued, StateRunning:
	case StateDone:
		if s.spec.Mode == ModeAuto {
			return HandoffSession{}, false
		}
	default:
		return HandoffSession{}, false
	}
	hs := HandoffSession{
		ID:      s.id,
		State:   s.state,
		Evals:   len(s.history),
		Spec:    s.spec,
		History: append([]HistoryEntry(nil), s.history...),
	}
	hs.Spec.ID = ""
	// The successor must not re-match a repository that may have filled
	// since: a session that matched nothing at create would otherwise be
	// seeded on its successor and diverge. Only an auto session that has
	// not run yet starts over, so it may match afresh.
	if s.spec.Mode != ModeAuto || len(s.history) > 0 {
		hs.Spec.WarmStart = false
	}
	switch {
	case s.warm != nil:
		// Seed the successor with the exact warm start the lost instance
		// held.
		hs.Spec.Prior = s.warm.Points
		hs.Spec.PriorSource = s.warm.Source
		hs.Spec.PriorCluster = s.warm.Cluster
		hs.Spec.PriorDistance = s.warm.Distance
	case s.spec.Mode == ModeAuto && len(s.history) > 0:
		// Auto sessions are not replayed observation by observation (a
		// worker re-drives them on the simulator); their own history
		// becomes the prior, so the re-driven session starts from what the
		// lost one had learned.
		hs.Spec.Prior = historyPrior(s)
		hs.Spec.PriorSource = s.spec.Workload
		hs.Spec.PriorCluster = s.spec.Cluster
	}
	return hs, true
}

func sortHandoff(sessions []HandoffSession) {
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
}

// historyPrior renders a session's own history as prior points.
func historyPrior(s *Session) []bo.PriorPoint {
	pts := make([]bo.PriorPoint, 0, len(s.history))
	for _, h := range s.history {
		pts = append(pts, bo.PriorPoint{
			X:   s.space.Encode(h.Config),
			Cfg: h.Config,
			Y:   h.Objective,
		})
	}
	return pts
}
