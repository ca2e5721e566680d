package main

import (
	"errors"
	"fmt"
	"time"

	"relm"
	"relm/internal/service"
)

// sent is one observation a client reported and the program acknowledged.
type sent struct {
	Config     relm.Config
	RuntimeSec float64
	Aborted    bool
}

// sessionRecord is everything a client sent and received for one session:
// the record every output check compares the program's answers against.
type sessionRecord struct {
	plan        plan
	id          string
	node        string
	warmStarted bool
	sugs        []relm.Config // every suggestion received, in order
	dones       []bool        // the done flag returned with each suggestion
	obs         []sent        // observations sent and acknowledged
	evals       int           // evals reported with the last acknowledgement
	best        *float64      // best runtime reported with the last acknowledgement
	closed      bool
	failed      bool    // a request of this session failed
	simSec      float64 // simulated seconds of the session's experiments
}

// done reports whether the session's last suggestion came with done=true.
func (r *sessionRecord) done() bool { return len(r.dones) > 0 && r.dones[len(r.dones)-1] }

// clientBest is the minimum over the non-aborted runtimes the client sent.
func (r *sessionRecord) clientBest() (float64, bool) {
	best, ok := 0.0, false
	for _, o := range r.obs {
		if !o.Aborted && (!ok || o.RuntimeSec < best) {
			best, ok = o.RuntimeSec, true
		}
	}
	return best, ok
}

// checkConfigs: every suggested configuration passes Config.Validate.
func checkConfigs(r *sessionRecord) error {
	for i, c := range r.sugs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("session %s: suggestion %d invalid: %v", r.id, i, err)
		}
	}
	return nil
}

// checkBest: the reported best equals the minimum over the non-aborted
// runtimes the client sent, and evals equals the observations acked.
func checkBest(r *sessionRecord) error {
	return compareBest(r, r.evals, r.best)
}

func compareBest(r *sessionRecord, evals int, best *float64) error {
	if evals != len(r.obs) {
		return fmt.Errorf("session %s: program reports %d evals, client had %d observations acked", r.id, evals, len(r.obs))
	}
	want, ok := r.clientBest()
	switch {
	case !ok && best != nil:
		return fmt.Errorf("session %s: best %v reported but every observation aborted", r.id, *best)
	case ok && best == nil:
		return fmt.Errorf("session %s: no best reported, client best is %v", r.id, want)
	case ok && *best != want:
		return fmt.Errorf("session %s: best %v reported, client best is %v", r.id, *best, want)
	}
	return nil
}

// checkLibrary drives the same policy in-process through the library, with
// a fresh simulator Evaluator on the same seed, and requires the recorded
// suggestion sequence and done flags. step receives the time of each
// Suggest+Observe pair in microseconds (nil to skip).
func checkLibrary(r *sessionRecord, step func(us float64)) error {
	cl, wl, err := resolve(r.plan)
	if err != nil {
		return err
	}
	t := libraryTuner(r.plan, cl, wl, relm.BOOptions{})
	ev := relm.NewEvaluator(cl, wl, r.plan.Seed)
	for i, want := range r.sugs {
		start := time.Now()
		cfg := t.Suggest()
		done := t.Done()
		d := time.Since(start)
		if cfg != want || done != r.dones[i] {
			return fmt.Errorf("session %s (%s %s/%s seed %d): suggestion %d is %v done=%v, library gives %v done=%v",
				r.id, r.plan.Backend, r.plan.Workload, r.plan.Cluster, r.plan.Seed, i, want, r.dones[i], cfg, done)
		}
		if i >= len(r.obs) {
			break
		}
		s := ev.Eval(cfg)
		if s.RuntimeSec != r.obs[i].RuntimeSec || s.Result.Aborted != r.obs[i].Aborted {
			return fmt.Errorf("session %s: observation %d measured %v, library evaluator gives %v", r.id, i, r.obs[i].RuntimeSec, s.RuntimeSec)
		}
		start = time.Now()
		t.Observe(s)
		d += time.Since(start)
		if step != nil {
			step(float64(d.Nanoseconds()) / 1e3)
		}
	}
	return nil
}

// sessionView is the part of a session manager the reopen check reads.
type sessionView interface {
	Get(id string) (service.Status, error)
	History(id string) ([]service.HistoryEntry, error)
	Suggest(id string) (relm.Config, bool, error)
}

// checkReopen: after close and reopen, a closed session stays gone; any
// other session has the client's state, best and history, and gives the
// same next suggestion it gave before.
func checkReopen(r *sessionRecord, v sessionView) error {
	st, err := v.Get(r.id)
	if r.closed {
		if !errors.Is(err, service.ErrNotFound) {
			return fmt.Errorf("closed session %s came back after reopen (err=%v)", r.id, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("session %s lost on reopen: %v", r.id, err)
	}
	var best *float64
	if st.Best != nil {
		best = &st.Best.RuntimeSec
	}
	if err := compareBest(r, st.Evals, best); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	if st.Done != r.done() {
		return fmt.Errorf("session %s: done=%v after reopen, client saw %v", r.id, st.Done, r.done())
	}
	hist, err := v.History(r.id)
	if err != nil {
		return fmt.Errorf("session %s history after reopen: %v", r.id, err)
	}
	got := make([]sent, len(hist))
	for i, h := range hist {
		got[i] = sent{Config: h.Config, RuntimeSec: h.RuntimeSec, Aborted: h.Aborted}
	}
	if err := sameHistory(r, got); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	cfg, done, err := v.Suggest(r.id)
	if err != nil {
		return fmt.Errorf("session %s suggest after reopen: %v", r.id, err)
	}
	return sameNext(r, cfg, done)
}

// sameHistory compares a program's history with the client's record.
func sameHistory(r *sessionRecord, got []sent) error {
	if len(got) != len(r.obs) {
		return fmt.Errorf("session %s: history has %d entries, client sent %d", r.id, len(got), len(r.obs))
	}
	for i := range got {
		if got[i] != r.obs[i] {
			return fmt.Errorf("session %s: history entry %d is %+v, client sent %+v", r.id, i, got[i], r.obs[i])
		}
	}
	return nil
}

// sameNext compares a next suggestion with the last one the client saw.
func sameNext(r *sessionRecord, cfg relm.Config, done bool) error {
	if len(r.sugs) == 0 {
		return fmt.Errorf("session %s: no suggestion recorded", r.id)
	}
	want := r.sugs[len(r.sugs)-1]
	if cfg != want || done != r.done() {
		return fmt.Errorf("session %s: next suggestion %v done=%v, client saw %v done=%v", r.id, cfg, done, want, r.done())
	}
	return nil
}
