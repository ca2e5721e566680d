package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"relm"
	"relm/internal/obs"
	"relm/internal/store"
)

// timedStore wraps the durable session store and times every Append made
// while a traced slice is on. It adds no behaviour.
type timedStore struct {
	relm.SessionStore
	sl      atomic.Pointer[slicer] // nil outside a traced timed phase
	appends samples
}

func (s *timedStore) Append(ev *store.Event) (uint64, error) {
	sl := s.sl.Load()
	if sl == nil || !sl.on(time.Now()) {
		return s.SessionStore.Append(ev)
	}
	start := time.Now()
	seq, err := s.SessionStore.Append(ev)
	s.appends.add(us(time.Since(start)))
	return seq, err
}

// hdrTrace marks a request a benchmark client traces:
// "<client>:<seq>:<kind>".
const hdrTrace = "X-Perfbench-Trace"

// handled is the handler time of one traced request.
type handled struct {
	Seq uint64 `json:"seq"`
	Ns  int64  `json:"ns"`
}

// timedHandler wraps the service's HTTP handler. It times the requests a
// benchmark client marked traced, by client and sequence number, so the
// client can split each latency into handler time and the time outside
// the handler (client, loopback, HTTP framing).
type timedHandler struct {
	inner http.Handler

	mu      sync.Mutex
	kinds   [kindObserve + 1][]float64 // handler time by request kind (us)
	handled map[int][]handled          // by client
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get(hdrTrace)
	if tag == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	var ci, kind int
	var seq uint64
	if _, err := fmt.Sscanf(tag, "%d:%d:%d", &ci, &seq, &kind); err != nil || kind < 0 || kind >= len(h.kinds) {
		http.Error(w, "bad "+hdrTrace+" header", http.StatusBadRequest)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(start)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.kinds[kind] = append(h.kinds[kind], us(d))
	if h.handled == nil {
		h.handled = make(map[int][]handled)
	}
	h.handled[ci] = append(h.handled[ci], handled{Seq: seq, Ns: d.Nanoseconds()})
}

// nodeStats is what a traced node reports at GET /perfbench/stats.
type nodeStats struct {
	OpenS   float64                 `json:"open_s"`
	ReplayS float64                 `json:"replay_s"`
	Appends []float64               `json:"appends_us"`
	Kinds   [][]float64             `json:"handler_us"`
	Handled map[int][]handled       `json:"handled"`
	Stages  map[string]obs.HistJSON `json:"stages"`
	Store   store.Metrics           `json:"store"`
}

// serveBench answers the benchmark's own endpoints on a traced node:
// POST /perfbench/start?at=<unix ns> starts the traced slices of the timed
// phase, POST /perfbench/stop ends them, GET /perfbench/stats reports.
func (n *durableNode) serveBench(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/perfbench/start":
		at, err := strconv.ParseInt(r.URL.Query().Get("at"), 10, 64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n.store.sl.Store(&slicer{start: time.Unix(0, at), trace: true})
	case "/perfbench/stop":
		n.store.sl.Store(nil)
	case "/perfbench/stats":
		st := nodeStats{
			OpenS:   n.open.Seconds(),
			ReplayS: n.replay.Seconds(),
			Appends: n.store.appends.values(),
			Stages:  make(map[string]obs.HistJSON),
			Store:   n.store.Metrics(),
		}
		for k, s := range n.reg.Snapshots() {
			st.Stages[k] = s.JSON()
		}
		n.handler.mu.Lock()
		for _, k := range n.handler.kinds {
			st.Kinds = append(st.Kinds, append([]float64(nil), k...))
		}
		st.Handled = n.handler.handled
		b, err := json.Marshal(st)
		n.handler.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	default:
		http.NotFound(w, r)
	}
}

// delta is what a histogram recorded between two snapshots.
func delta(before, after obs.Snapshot) obs.Snapshot {
	d := after
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	d.Count -= before.Count
	d.SumNs -= before.SumNs
	return d
}

// deltas applies delta to every stage of two snapshot sets.
func deltas(before, after map[string]obs.Snapshot) map[string]obs.Snapshot {
	out := make(map[string]obs.Snapshot, len(after))
	for k, a := range after {
		out[k] = delta(before[k], a)
	}
	return out
}

func snapshots(hs map[string]obs.HistJSON) map[string]obs.Snapshot {
	out := make(map[string]obs.Snapshot, len(hs))
	for k, h := range hs {
		out[k] = h.Snapshot()
	}
	return out
}

// meanUs is a snapshot's mean in microseconds (0 when empty).
func meanUs(s obs.Snapshot) float64 { return s.MeanNs() / 1e3 }

// merged folds several stages of a snapshot set into one.
func merged(snaps map[string]obs.Snapshot, stages ...string) obs.Snapshot {
	var out obs.Snapshot
	for _, s := range stages {
		out.Merge(snaps[s])
	}
	return out
}
