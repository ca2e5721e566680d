package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"relm/internal/service"
)

// Session hand-off: the one way sessions leave a node. A drained node
// returns its hand-off package itself (POST /v1/drain); for a dead node
// the survivor holding its replica builds the same package (POST
// /v1/replica/promote, see promote.go). Either way handOff re-creates each
// session under its original ID on its new rendezvous owner and replays
// its history there, so a planned drain is exactly as strong as a
// fail-over: remote sessions continue bit-exact with the same next
// suggestion, and auto sessions restart seeded with their history as a
// prior.

// reassignment records where one handed-off session went.
type reassignment struct {
	ID   string `json:"id"`
	Node string `json:"node"`
}

// handleDrain drains one node and hands its sessions off:
//
//  1. the node is taken out of placement immediately,
//  2. POST /v1/drain closes its sessions and returns the hand-off package,
//  3. handOff places and replays each session on a survivor, then imports
//     the node's models.
//
// Any hand-off failure yields 502 with detail, and the drain is not rolled
// back (the node is already out of service). Re-running the drain cannot
// recover — a second service Drain returns an empty package — so the 502
// carries everything needed to finish by hand: each un-placed session as
// its hand-off entry (create body plus history to replay; the backend
// answers 409 if a retry already placed it) and the models (re-POST them
// to /v1/repository/import — idempotent).
func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("node")
	n := r.nodeByName(name)
	if n == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown node %q", name)})
		return
	}
	n.mu.Lock()
	n.draining = true
	n.mu.Unlock()
	r.logf("router: draining node %s", name)

	// Once the node has closed its sessions, a caller that hangs up must
	// not stop a half-replayed hand-off; only the trace carries over.
	ctx := context.WithoutCancel(req.Context())
	status, body, _, err := r.send(ctx, r.drainClient, n, http.MethodPost, "/v1/drain", "", []byte("{}"))
	if err != nil {
		n.suspect(err, r.opts.FailAfter)
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error": "drain request failed: " + err.Error(), "node": name,
		})
		return
	}
	if status != http.StatusOK {
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error": fmt.Sprintf("drain status %d: %s", status, truncate(body, 200)), "node": name,
		})
		return
	}
	var h service.HandoffResponse
	if err := json.Unmarshal(body, &h); err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error": "bad drain body: " + err.Error(), "node": name,
		})
		return
	}

	reassigned, unplaced, errs := r.handOff(ctx, r.eligibleNodes(), h)
	resp := map[string]any{
		"node":       name,
		"sessions":   len(h.Sessions),
		"models":     len(h.Models),
		"reassigned": reassigned,
	}
	if errs != nil {
		resp["error"] = "drain hand-off incomplete"
		resp["errors"] = errs
		resp["unassigned"] = unplaced
		resp["models_detail"] = h.Models
		writeJSON(w, http.StatusBadGateway, resp)
		return
	}
	r.logf("router: drained %s: %d sessions reassigned, %d models shared", name, len(reassigned), len(h.Models))
	writeJSON(w, http.StatusOK, resp)
}

// handOff moves a node's sessions onto the survivors: each is placed on
// its rendezvous owner among them and its history replayed there, then the
// node's models are imported into every survivor. Replay goes first: a
// replayed done session harvests on its successor, so the import then
// skips that entry's twin instead of storing it twice. It returns where
// each session went, the sessions it could not place, and the errors keyed
// by session or import target (nil when everything went through).
func (r *Router) handOff(ctx context.Context, survivors []*node, h service.HandoffResponse) ([]reassignment, []service.HandoffSessionJSON, map[string]string) {
	errs := make(map[string]string)
	reassigned := make([]reassignment, 0, len(h.Sessions))
	var unplaced []service.HandoffSessionJSON
	for _, hs := range h.Sessions {
		succ, err := r.place(ctx, survivors, hs)
		if err != nil {
			errs["session "+hs.ID] = err.Error()
			unplaced = append(unplaced, hs)
			continue
		}
		reassigned = append(reassigned, reassignment{ID: hs.ID, Node: succ.name})
	}

	if len(h.Models) > 0 {
		switch body, err := json.Marshal(service.RepoImportRequest{Models: h.Models}); {
		case err != nil:
			errs["import"] = "encode: " + err.Error()
		case len(survivors) == 0:
			errs["import"] = "no healthy survivor"
		default:
			for _, s := range survivors {
				st, b, _, err := r.send(ctx, r.drainClient, s, http.MethodPost, "/v1/repository/import", "", body)
				if err != nil {
					errs["import "+s.name] = err.Error()
				} else if st != http.StatusOK {
					errs["import "+s.name] = fmt.Sprintf("status %d: %s", st, truncate(b, 200))
				}
			}
		}
	}
	if len(errs) == 0 {
		errs = nil
	}
	return reassigned, unplaced, errs
}

// place re-creates one session on the first reachable of its rendezvous
// candidates among the survivors and replays its history there. A 409
// means an earlier or concurrent attempt already placed it.
func (r *Router) place(ctx context.Context, survivors []*node, hs service.HandoffSessionJSON) (*node, error) {
	create := hs.Create
	create.ID = hs.ID
	body, err := json.Marshal(create)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	for _, succ := range candidates(survivors, hs.ID) {
		if !succ.eligible() {
			continue
		}
		st, b, _, err := r.send(ctx, r.drainClient, succ, http.MethodPost, "/v1/sessions", "", body)
		if err != nil {
			succ.suspect(err, r.opts.FailAfter)
			continue
		}
		switch st {
		case http.StatusCreated:
			if err := r.replaySession(ctx, succ, hs); err != nil {
				return nil, fmt.Errorf("node %s: replay: %w", succ.name, err)
			}
			return succ, nil
		case http.StatusConflict:
			return succ, nil
		default:
			return nil, fmt.Errorf("node %s: create status %d: %s", succ.name, st, truncate(b, 200))
		}
	}
	return nil, errors.New("no reachable successor")
}

// replaySession drives a recreated remote session through its recorded
// history on its new owner: re-arm the suggestion where one was
// outstanding, then report the observation — the exact interleaving the
// journal recorded, which is what makes the successor's tuner bit-exact.
// Auto sessions are not replayed (their history rode in as the create
// prior and a worker re-drives them).
func (r *Router) replaySession(ctx context.Context, succ *node, hs service.HandoffSessionJSON) error {
	if hs.Create.Mode == "auto" || len(hs.History) == 0 {
		return nil
	}
	base := "/v1/sessions/" + hs.ID
	for i, h := range hs.History {
		if h.Suggested {
			if st, b, _, err := r.send(ctx, r.drainClient, succ, http.MethodPost, base+"/suggest", "", []byte("{}")); err != nil {
				return fmt.Errorf("suggest %d: %w", i, err)
			} else if st != http.StatusOK {
				return fmt.Errorf("suggest %d: status %d: %s", i, st, truncate(b, 200))
			}
		}
		obs, err := json.Marshal(service.ObserveRequest{
			Config:     h.Config,
			RuntimeSec: h.RuntimeSec,
			Aborted:    h.Aborted,
			GCOverhead: h.GCOverhead,
			Stats:      h.Stats,
		})
		if err != nil {
			return fmt.Errorf("observe %d: encode: %w", i, err)
		}
		if st, b, _, err := r.send(ctx, r.drainClient, succ, http.MethodPost, base+"/observe", "", obs); err != nil {
			return fmt.Errorf("observe %d: %w", i, err)
		} else if st != http.StatusOK {
			return fmt.Errorf("observe %d: status %d: %s", i, st, truncate(b, 200))
		}
	}
	return nil
}
