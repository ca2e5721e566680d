package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/fault"
	"relm/internal/obs"
	"relm/internal/profile"
	"relm/internal/replica"
	"relm/internal/store"
)

// ConfigJSON is the wire form of a configuration (Table 1 knobs).
type ConfigJSON struct {
	ContainersPerNode int     `json:"containers_per_node"`
	TaskConcurrency   int     `json:"task_concurrency"`
	CacheCapacity     float64 `json:"cache_capacity"`
	ShuffleCapacity   float64 `json:"shuffle_capacity"`
	NewRatio          int     `json:"new_ratio"`
	SurvivorRatio     int     `json:"survivor_ratio"`
}

func toConfigJSON(c conf.Config) ConfigJSON {
	return ConfigJSON{
		ContainersPerNode: c.ContainersPerNode,
		TaskConcurrency:   c.TaskConcurrency,
		CacheCapacity:     c.CacheCapacity,
		ShuffleCapacity:   c.ShuffleCapacity,
		NewRatio:          c.NewRatio,
		SurvivorRatio:     c.SurvivorRatio,
	}
}

func (cj ConfigJSON) toConfig() conf.Config {
	return conf.Config{
		ContainersPerNode: cj.ContainersPerNode,
		TaskConcurrency:   cj.TaskConcurrency,
		CacheCapacity:     cj.CacheCapacity,
		ShuffleCapacity:   cj.ShuffleCapacity,
		NewRatio:          cj.NewRatio,
		SurvivorRatio:     cj.SurvivorRatio,
	}
}

// CreateRequest is the body of POST /v1/sessions.
type CreateRequest struct {
	// ID optionally assigns the session ID (Spec.ID): a cluster router
	// mints IDs so it can place sessions by consistent hashing before they
	// exist. Duplicate IDs fail with 409; the node's own "sess-N" counter
	// namespace is reserved and fails with 400.
	ID            string `json:"id,omitempty"`
	Backend       string `json:"backend"`
	Workload      string `json:"workload"`
	Cluster       string `json:"cluster"`
	Mode          string `json:"mode"`
	Seed          uint64 `json:"seed"`
	MaxIterations int    `json:"max_iterations"`
	MaxSteps      int    `json:"max_steps"`

	// WarmStart asks the service to seed the session from the model
	// repository (§6.6). Remote sessions supply their workload
	// fingerprint via stats (+ the default-configuration runtime for
	// rescaling); auto sessions profile the default configuration
	// themselves.
	WarmStart         bool           `json:"warm_start,omitempty"`
	WarmMaxDistance   float64        `json:"warm_max_distance,omitempty"`
	Stats             *profile.Stats `json:"stats,omitempty"`
	DefaultRuntimeSec float64        `json:"default_runtime_sec,omitempty"`

	// PriorPoints explicitly seeds the optimizer, bypassing repository
	// matching — the fail-over hand-off path (Spec.Prior): a promoted
	// session is re-created with the exact points its lost instance held.
	PriorPoints   []bo.PriorPoint `json:"prior_points,omitempty"`
	PriorSource   string          `json:"prior_source,omitempty"`
	PriorCluster  string          `json:"prior_cluster,omitempty"`
	PriorDistance float64         `json:"prior_distance,omitempty"`

	// Surrogate configures the BO/GBO response-surface model (kernel,
	// active-set budget, refit schedule).
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`

	// Deprecated: flat aliases of the Surrogate object's fields, kept so
	// pre-object clients keep working. Ignored when surrogate is present.
	Kernel          string  `json:"kernel,omitempty"`
	SurrogateBudget int     `json:"surrogate_budget,omitempty"`
	RefitEvery      int     `json:"refit_every,omitempty"`
	RefitDrift      float64 `json:"refit_drift,omitempty"`
}

// surrogateSpec resolves the request's surrogate configuration: the nested
// object when present, otherwise the deprecated flat aliases.
func (req *CreateRequest) surrogateSpec() SurrogateSpec {
	if req.Surrogate != nil {
		return *req.Surrogate
	}
	return SurrogateSpec{
		Kernel:     req.Kernel,
		Budget:     req.SurrogateBudget,
		RefitEvery: req.RefitEvery,
		RefitDrift: req.RefitDrift,
	}
}

// ObserveRequest is the body of POST /v1/sessions/{id}/observe.
type ObserveRequest struct {
	Config     ConfigJSON     `json:"config"`
	RuntimeSec float64        `json:"runtime_sec"`
	Aborted    bool           `json:"aborted"`
	GCOverhead float64        `json:"gc_overhead,omitempty"`
	Stats      *profile.Stats `json:"stats,omitempty"`
}

// SuggestResponse is the body returned by POST /v1/sessions/{id}/suggest.
type SuggestResponse struct {
	Config ConfigJSON `json:"config"`
	Done   bool       `json:"done"`
}

// BestJSON is the wire form of a session's incumbent.
type BestJSON struct {
	Config     ConfigJSON `json:"config"`
	RuntimeSec float64    `json:"runtime_sec"`
	Objective  float64    `json:"objective"`
}

// StatusResponse is the wire form of a session status.
type StatusResponse struct {
	ID       string    `json:"id"`
	Node     string    `json:"node,omitempty"`
	Backend  string    `json:"backend"`
	Workload string    `json:"workload"`
	Cluster  string    `json:"cluster"`
	Mode     string    `json:"mode"`
	State    string    `json:"state"`
	Evals    int       `json:"evals"`
	Done     bool      `json:"done"`
	Best     *BestJSON `json:"best,omitempty"`
	Err      string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`

	WarmStarted  bool    `json:"warm_started,omitempty"`
	WarmSource   string  `json:"warm_source,omitempty"`
	WarmDistance float64 `json:"warm_distance,omitempty"`

	// Surrogate is the resolved surrogate configuration and its work
	// counters (BO/GBO sessions only).
	Surrogate *SurrogateStatus `json:"surrogate,omitempty"`
}

// HistoryJSON is one recorded experiment on the wire. Suggested reports
// whether a suggestion was outstanding when the observation arrived — a
// replayer (fail-over promotion) re-issues Suggest exactly for those
// entries, reproducing the live suggest/observe interleaving.
type HistoryJSON struct {
	Config     ConfigJSON     `json:"config"`
	RuntimeSec float64        `json:"runtime_sec"`
	Objective  float64        `json:"objective"`
	Aborted    bool           `json:"aborted"`
	GCOverhead float64        `json:"gc_overhead,omitempty"`
	Stats      *profile.Stats `json:"stats,omitempty"`
	Suggested  bool           `json:"suggested,omitempty"`
}

// MetricsResponse is the body of GET /v1/metrics.
type MetricsResponse struct {
	Node             string         `json:"node,omitempty"`
	Draining         bool           `json:"draining,omitempty"`
	Sessions         int            `json:"sessions"`
	SessionsByState  map[string]int `json:"sessions_by_state"`
	Observations     int64          `json:"observations"`
	Evictions        int64          `json:"evictions"`
	WarmStarts       int64          `json:"warm_starts"`
	SurrogateFits    int64          `json:"surrogate_fits,omitempty"`
	SurrogateAppends int64          `json:"surrogate_appends,omitempty"`
	// SurrogateCompactions stays a top-level numeric (like fits/appends) so
	// the router's metrics fan-out sums it cluster-wide.
	SurrogateCompactions int64      `json:"surrogate_compactions,omitempty"`
	RepoEntries          int        `json:"repo_entries"`
	RepoCapacity         int        `json:"repo_capacity,omitempty"`
	RepoHits             int64      `json:"repo_hits,omitempty"`
	RepoEvictions        int64      `json:"repo_evictions,omitempty"`
	Persistence          bool       `json:"persistence"`
	Replication          bool       `json:"replication,omitempty"`
	WALBytes             int64      `json:"wal_bytes,omitempty"`
	WALEvents            uint64     `json:"wal_events,omitempty"`
	WALSegments          int        `json:"wal_segments,omitempty"`
	PrunedSegments       uint64     `json:"pruned_segments,omitempty"`
	CommitBatches        uint64     `json:"commit_batches,omitempty"`
	BatchedEvents        uint64     `json:"batched_events,omitempty"`
	Snapshots            uint64     `json:"snapshots,omitempty"`
	SnapshotBytes        int64      `json:"snapshot_bytes,omitempty"`
	LastCompaction       *time.Time `json:"last_compaction,omitempty"`
	JournalError         string     `json:"journal_error,omitempty"`
	// WALDegraded reports a write-ahead log that hit an unrecoverable
	// write/fsync failure and flipped read-only; the node refuses writes
	// with retriable 503s until it is restarted on healthy storage.
	WALDegraded       bool   `json:"wal_degraded,omitempty"`
	WALDegradedReason string `json:"wal_degraded_reason,omitempty"`

	// Replication lag and ingest counters (internal/replica). Top-level
	// numerics so the router's metrics fan-out sums them cluster-wide.
	ReplicaFollowers     int     `json:"replica_followers,omitempty"`
	ReplicaSegsBehind    int     `json:"replica_segments_behind,omitempty"`
	ReplicaBytesBehind   int64   `json:"replica_bytes_behind,omitempty"`
	ReplicaLastAckAgeSec float64 `json:"replica_last_ack_age_sec,omitempty"`
	ReplicaShips         uint64  `json:"replica_ships,omitempty"`
	ReplicaShipErrors    uint64  `json:"replica_ship_errors,omitempty"`
	ReplicaPrimaries     int     `json:"replica_primaries,omitempty"`
	ReplicaIngests       uint64  `json:"replica_ingests,omitempty"`
	ReplicaIngestBytes   int64   `json:"replica_ingest_bytes,omitempty"`
	ReplicaPromotions    uint64  `json:"replica_promotions,omitempty"`

	// Stages carries the per-stage latency digests; StageHist the raw
	// bucket arrays the router merges bucket-wise into cluster-exact
	// percentiles. Both absent when the node runs with NoObs.
	Stages    map[string]obs.Summary   `json:"stages,omitempty"`
	StageHist map[string]StageHistJSON `json:"stage_hist,omitempty"`
}

// StageHistJSON is the mergeable wire form of one stage histogram: the
// full power-of-two bucket array plus count/sum (obs.HistJSON). Adding
// two of these bucket-wise is exact, so cluster-wide percentiles need no
// approximation beyond the buckets themselves.
type StageHistJSON = obs.HistJSON

// stageFields renders a stage-snapshot map into the two wire maps.
func stageFields(stages map[string]obs.Snapshot) (map[string]obs.Summary, map[string]StageHistJSON) {
	if len(stages) == 0 {
		return nil, nil
	}
	sums := make(map[string]obs.Summary, len(stages))
	hists := make(map[string]StageHistJSON, len(stages))
	for name, snap := range stages {
		sums[name] = snap.Summarize()
		hists[name] = snap.JSON()
	}
	return sums, hists
}

// RepoExportResponse is the body of GET /v1/repository/export — the full
// repository entries, prior points included, for another node to import.
// RepoImportRequest is the same shape POSTed to /v1/repository/import.
type RepoExportResponse struct {
	Models []bo.RepoEntry `json:"models"`
}

// RepoImportRequest is the body of POST /v1/repository/import.
type RepoImportRequest struct {
	Models []bo.RepoEntry `json:"models"`
}

// RepoImportResponse is the body returned by POST /v1/repository/import.
type RepoImportResponse struct {
	Imported int `json:"imported"`
}

// specToCreateRequest renders a Spec as the wire request that re-creates it.
// The surrogate object is emitted only when set, keeping hand-off bodies for
// default-surrogate sessions byte-identical to previous releases.
func specToCreateRequest(spec Spec) CreateRequest {
	var sur *SurrogateSpec
	if spec.Surrogate != (SurrogateSpec{}) {
		s := spec.Surrogate
		sur = &s
	}
	return CreateRequest{
		Surrogate:         sur,
		Backend:           spec.Backend,
		Workload:          spec.Workload,
		Cluster:           spec.Cluster,
		Mode:              spec.Mode,
		Seed:              spec.Seed,
		MaxIterations:     spec.MaxIterations,
		MaxSteps:          spec.MaxSteps,
		WarmStart:         spec.WarmStart,
		WarmMaxDistance:   spec.WarmMaxDistance,
		Stats:             spec.Stats,
		DefaultRuntimeSec: spec.DefaultRuntimeSec,
		PriorPoints:       spec.Prior,
		PriorSource:       spec.PriorSource,
		PriorCluster:      spec.PriorCluster,
		PriorDistance:     spec.PriorDistance,
	}
}

// HandoffSessionJSON is one handed-off session on the wire: the create
// body a router POSTs to the session's new owner (ID re-added) plus the
// history to replay into it.
type HandoffSessionJSON struct {
	ID      string        `json:"id"`
	State   string        `json:"state"`
	Evals   int           `json:"evals"`
	Create  CreateRequest `json:"create"`
	History []HistoryJSON `json:"history,omitempty"`
}

// HandoffResponse is the body of POST /v1/replica/promote and POST
// /v1/drain: the node's handed-off sessions and model repository.
type HandoffResponse struct {
	Node     string               `json:"node"`
	Sessions []HandoffSessionJSON `json:"sessions"`
	Models   []bo.RepoEntry       `json:"models"`
}

func toHandoffResponse(rep HandoffReport) HandoffResponse {
	resp := HandoffResponse{
		Node:     rep.Node,
		Sessions: make([]HandoffSessionJSON, 0, len(rep.Sessions)),
		Models:   rep.Repo,
	}
	for _, hs := range rep.Sessions {
		hj := HandoffSessionJSON{
			ID:     hs.ID,
			State:  hs.State,
			Evals:  hs.Evals,
			Create: specToCreateRequest(hs.Spec),
		}
		for _, h := range hs.History {
			hj.History = append(hj.History, HistoryJSON{
				Config:     toConfigJSON(h.Config),
				RuntimeSec: h.RuntimeSec,
				Objective:  h.Objective,
				Aborted:    h.Aborted,
				GCOverhead: h.GCOverhead,
				Stats:      h.Stats,
				Suggested:  h.Suggested,
			})
		}
		resp.Sessions = append(resp.Sessions, hj)
	}
	return resp
}

// RepoEntryJSON is the wire form of one repository entry's inspection view.
type RepoEntryJSON struct {
	Workload    string    `json:"workload"`
	Cluster     string    `json:"cluster"`
	Fingerprint []float64 `json:"fingerprint"`
	DefaultSec  float64   `json:"default_sec,omitempty"`
	Points      int       `json:"points"`
	Hits        uint64    `json:"hits"`
	AddedAt     time.Time `json:"added_at,omitzero"`
	LastUsed    time.Time `json:"last_used,omitzero"`
}

// RepositoryResponse is the body of GET /v1/repository.
type RepositoryResponse struct {
	Entries   int             `json:"entries"`
	Capacity  int             `json:"capacity,omitempty"`
	Hits      int64           `json:"hits"`
	Evictions int64           `json:"evictions"`
	Models    []RepoEntryJSON `json:"models"`
}

func toStatusResponse(st Status) StatusResponse {
	resp := StatusResponse{
		ID:       st.ID,
		Node:     st.Node,
		Backend:  st.Backend,
		Workload: st.Workload,
		Cluster:  st.Cluster,
		Mode:     st.Mode,
		State:    st.State,
		Evals:    st.Evals,
		Done:     st.Done,
		Err:      st.Err,
		Created:  st.Created,
		LastUsed: st.LastUsed,
	}
	resp.WarmStarted = st.WarmStarted
	resp.WarmSource = st.WarmSource
	resp.WarmDistance = st.WarmDistance
	resp.Surrogate = st.Surrogate
	if st.Best != nil {
		resp.Best = &BestJSON{
			Config:     toConfigJSON(st.Best.Config),
			RuntimeSec: st.Best.RuntimeSec,
			Objective:  st.Best.Objective,
		}
	}
	return resp
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

// NewHandler exposes a Manager over the JSON API:
//
//	POST   /v1/sessions               create a session
//	GET    /v1/sessions               list sessions
//	GET    /v1/sessions/{id}          session status (incl. best)
//	POST   /v1/sessions/{id}/suggest  next configuration to measure
//	POST   /v1/sessions/{id}/observe  report one measurement
//	GET    /v1/sessions/{id}/history  recorded experiments
//	DELETE /v1/sessions/{id}          close the session (idempotent)
//	GET    /v1/metrics                service + store observability counters, stage digests, raw stage buckets
//	GET    /metrics                   the same in Prometheus text exposition format (scrape target)
//	GET    /v1/traces                 recent request traces with timed spans (?id= for one, ?limit= to cap)
//	GET    /v1/repository             model-repository inspection (entries, fingerprints, hit/evict counters)
//	GET    /v1/repository/export      full repository entries, prior points included
//	POST   /v1/repository/import      merge another node's exported entries (idempotent)
//	POST   /v1/drain                  take the node out of service; returns the hand-off package
//	GET    /v1/replica/status         replication status (shipper + ingest sides); ?primary= filters
//	POST   /v1/replica/segments       ingest one segment chunk (?primary=&segment=&offset=&min=)
//	POST   /v1/replica/snapshot       ingest a snapshot (?primary=&hash=)
//	POST   /v1/replica/promote        fence + replay a dead primary's replica; returns the hand-off
//	GET    /healthz                   liveness + node identity + draining flag
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		spanStart := time.Now()
		st, err := m.Create(Spec{
			ID:                req.ID,
			Backend:           req.Backend,
			Workload:          req.Workload,
			Cluster:           req.Cluster,
			Mode:              req.Mode,
			Seed:              req.Seed,
			MaxIterations:     req.MaxIterations,
			MaxSteps:          req.MaxSteps,
			WarmStart:         req.WarmStart,
			WarmMaxDistance:   req.WarmMaxDistance,
			Stats:             req.Stats,
			DefaultRuntimeSec: req.DefaultRuntimeSec,
			Prior:             req.PriorPoints,
			PriorSource:       req.PriorSource,
			PriorCluster:      req.PriorCluster,
			PriorDistance:     req.PriorDistance,
			Surrogate:         req.surrogateSpec(),
		})
		obs.TraceFrom(r.Context()).AddSpan("service.create", spanStart)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, toStatusResponse(st))
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		all := m.List()
		out := make([]StatusResponse, 0, len(all))
		for _, st := range all {
			out = append(out, toStatusResponse(st))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, toStatusResponse(st))
	})

	mux.HandleFunc("POST /v1/sessions/{id}/suggest", func(w http.ResponseWriter, r *http.Request) {
		spanStart := time.Now()
		cfg, done, err := m.Suggest(r.PathValue("id"))
		obs.TraceFrom(r.Context()).AddSpan("service.suggest", spanStart)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, SuggestResponse{Config: toConfigJSON(cfg), Done: done})
	})

	mux.HandleFunc("POST /v1/sessions/{id}/observe", func(w http.ResponseWriter, r *http.Request) {
		var req ObserveRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		spanStart := time.Now()
		st, err := m.Observe(r.PathValue("id"), Observation{
			Config:     req.Config.toConfig(),
			RuntimeSec: req.RuntimeSec,
			Aborted:    req.Aborted,
			GCOverhead: req.GCOverhead,
			Stats:      req.Stats,
		})
		obs.TraceFrom(r.Context()).AddSpan("service.observe", spanStart)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, toStatusResponse(st))
	})

	mux.HandleFunc("GET /v1/sessions/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		hist, err := m.History(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		out := make([]HistoryJSON, 0, len(hist))
		for _, h := range hist {
			out = append(out, HistoryJSON{
				Config:     toConfigJSON(h.Config),
				RuntimeSec: h.RuntimeSec,
				Objective:  h.Objective,
				Aborted:    h.Aborted,
				GCOverhead: h.GCOverhead,
				Stats:      h.Stats,
				Suggested:  h.Suggested,
			})
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		mt := m.Metrics()
		resp := MetricsResponse{
			Node:                 mt.Node,
			Draining:             mt.Draining,
			Sessions:             mt.Sessions,
			SessionsByState:      mt.SessionsByState,
			Observations:         mt.Observations,
			Evictions:            mt.Evictions,
			WarmStarts:           mt.WarmStarts,
			SurrogateFits:        mt.SurrogateFits,
			SurrogateAppends:     mt.SurrogateAppends,
			SurrogateCompactions: mt.SurrogateCompactions,
			RepoEntries:          mt.RepoEntries,
			RepoCapacity:         mt.RepoCapacity,
			RepoHits:             mt.RepoHits,
			RepoEvictions:        mt.RepoEvictions,
			Persistence:          mt.Persistence,
			Replication:          mt.Replication,
			JournalError:         mt.JournalError,
		}
		if mt.Replication {
			resp.ReplicaFollowers = mt.Replica.Followers
			resp.ReplicaSegsBehind = mt.Replica.SegmentsBehind
			resp.ReplicaBytesBehind = mt.Replica.BytesBehind
			resp.ReplicaLastAckAgeSec = mt.Replica.LastAckAgeSec
			resp.ReplicaShips = mt.Replica.Ships
			resp.ReplicaShipErrors = mt.Replica.ShipErrors
			resp.ReplicaPrimaries = mt.Replica.Primaries
			resp.ReplicaIngests = mt.Replica.Ingests
			resp.ReplicaIngestBytes = mt.Replica.IngestBytes
			resp.ReplicaPromotions = mt.Replica.Promotions
		}
		if mt.Persistence {
			resp.WALBytes = mt.Store.WALBytes
			resp.WALEvents = mt.Store.WALEvents
			resp.WALSegments = mt.Store.Segments
			resp.PrunedSegments = mt.Store.PrunedSegments
			resp.CommitBatches = mt.Store.Batches
			resp.BatchedEvents = mt.Store.BatchedEvents
			resp.Snapshots = mt.Store.Snapshots
			resp.SnapshotBytes = mt.Store.SnapshotBytes
			resp.WALDegraded = mt.Store.Degraded
			resp.WALDegradedReason = mt.Store.DegradedReason
			if !mt.Store.LastCompaction.IsZero() {
				t := mt.Store.LastCompaction
				resp.LastCompaction = &t
			}
		}
		resp.Stages, resp.StageHist = stageFields(mt.Stages)
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePromMetrics(w, m.Metrics())
	})

	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if id := q.Get("id"); id != "" {
			rec, ok := m.Tracer().Find(id)
			if !ok {
				writeJSON(w, http.StatusNotFound, errorJSON{Error: "trace not found: " + id})
				return
			}
			writeJSON(w, http.StatusOK, TracesResponse{Node: m.NodeID(), Traces: []obs.TraceRecord{rec}})
			return
		}
		limit, _ := strconv.Atoi(q.Get("limit"))
		writeJSON(w, http.StatusOK, TracesResponse{Node: m.NodeID(), Traces: m.Tracer().Recent(limit)})
	})

	mux.HandleFunc("GET /v1/repository", func(w http.ResponseWriter, r *http.Request) {
		rep := m.RepositoryReport()
		resp := RepositoryResponse{
			Entries:   len(rep.Entries),
			Capacity:  rep.Capacity,
			Hits:      rep.Hits,
			Evictions: rep.Evictions,
			Models:    make([]RepoEntryJSON, 0, len(rep.Entries)),
		}
		for _, e := range rep.Entries {
			resp.Models = append(resp.Models, RepoEntryJSON{
				Workload:    e.Workload,
				Cluster:     e.Cluster,
				Fingerprint: e.Fingerprint,
				DefaultSec:  e.DefaultSec,
				Points:      e.Points,
				Hits:        e.Hits,
				AddedAt:     e.AddedAt,
				LastUsed:    e.LastUsed,
			})
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.CloseSession(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, toHandoffResponse(m.Drain()))
	})

	mux.HandleFunc("GET /v1/repository/export", func(w http.ResponseWriter, r *http.Request) {
		repo := m.Repository()
		writeJSON(w, http.StatusOK, RepoExportResponse{Models: repo.Entries})
	})

	mux.HandleFunc("POST /v1/repository/import", func(w http.ResponseWriter, r *http.Request) {
		var req RepoImportRequest
		// Entries carry whole prior-point sets; allow a larger body than
		// the per-session endpoints.
		if !decodeJSONLimit(w, r, &req, 64<<20) {
			return
		}
		writeJSON(w, http.StatusOK, RepoImportResponse{Imported: m.ImportRepository(req.Models)})
	})

	mux.HandleFunc("GET /v1/replica/status", func(w http.ResponseWriter, r *http.Request) {
		set := m.ReplicaSet()
		if set == nil {
			// Replication off is not an error: shippers probing a peer see an
			// empty status and treat it as "holds nothing of mine".
			writeJSON(w, http.StatusOK, replica.StatusResponse{Node: m.NodeID()})
			return
		}
		st := set.Status()
		if p := r.URL.Query().Get("primary"); p != "" {
			var keep []replica.PrimaryStatus
			for _, ps := range st.Primaries {
				if ps.Primary == p {
					keep = append(keep, ps)
				}
			}
			st.Primaries = keep
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("POST /v1/replica/segments", func(w http.ResponseWriter, r *http.Request) {
		set := m.ReplicaSet()
		if set == nil {
			writeJSON(w, http.StatusServiceUnavailable, replica.IngestResponse{Error: "replication not configured"})
			return
		}
		q := r.URL.Query()
		segment, err1 := strconv.ParseUint(q.Get("segment"), 10, 64)
		offset, err2 := strconv.ParseInt(q.Get("offset"), 10, 64)
		var min uint64
		var err3 error
		if v := q.Get("min"); v != "" {
			min, err3 = strconv.ParseUint(v, 10, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			writeJSON(w, http.StatusBadRequest, replica.IngestResponse{Error: "bad segment/offset/min"})
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, replica.IngestResponse{Error: err.Error()})
			return
		}
		size, err := set.Ingest(q.Get("primary"), segment, offset, min, data)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, replica.IngestResponse{Size: size})
		case errors.Is(err, replica.ErrFenced):
			writeJSON(w, http.StatusGone, replica.IngestResponse{Error: err.Error()})
		default:
			var oe *replica.OffsetError
			if errors.As(err, &oe) {
				writeJSON(w, http.StatusConflict, replica.IngestResponse{Size: oe.Size, Error: err.Error()})
				return
			}
			writeJSON(w, http.StatusBadRequest, replica.IngestResponse{Error: err.Error()})
		}
	})

	mux.HandleFunc("POST /v1/replica/snapshot", func(w http.ResponseWriter, r *http.Request) {
		set := m.ReplicaSet()
		if set == nil {
			writeJSON(w, http.StatusServiceUnavailable, replica.IngestResponse{Error: "replication not configured"})
			return
		}
		q := r.URL.Query()
		data, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, replica.IngestResponse{Error: err.Error()})
			return
		}
		if err := set.IngestSnapshot(q.Get("primary"), q.Get("hash"), data); err != nil {
			if errors.Is(err, replica.ErrFenced) {
				writeJSON(w, http.StatusGone, replica.IngestResponse{Error: err.Error()})
				return
			}
			writeJSON(w, http.StatusBadRequest, replica.IngestResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, replica.IngestResponse{Size: int64(len(data))})
	})

	mux.HandleFunc("POST /v1/replica/promote", func(w http.ResponseWriter, r *http.Request) {
		set := m.ReplicaSet()
		if set == nil {
			http.Error(w, "replication not configured", http.StatusServiceUnavailable)
			return
		}
		var req struct {
			Primary string `json:"primary"`
		}
		if !decodeJSON(w, r, &req) {
			return
		}
		dir, err := set.Promote(req.Primary)
		if err != nil {
			if errors.Is(err, replica.ErrNoReplica) {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := ExtractHandoff(dir, req.Primary)
		if err != nil {
			// Promotion replay failing (e.g. a corrupt sealed replica
			// segment) must be loud, not a silent empty hand-off.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, toHandoffResponse(rep))
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := map[string]any{"ok": true, "sessions": m.Len()}
		if id := m.NodeID(); id != "" {
			resp["node"] = id
		}
		if adv := m.Advertise(); adv != "" {
			resp["advertise"] = adv
		}
		if m.Draining() {
			resp["draining"] = true
		}
		code := http.StatusOK
		if reason, degraded := m.StoreDegraded(); degraded {
			// A degraded WAL cannot ack writes, so the node reports
			// unhealthy: the router stops routing to it and, with
			// replication, promotes a follower's replica — the same
			// recovery path as a crash, minus the data loss.
			resp["ok"] = false
			resp["degraded"] = reason
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, resp)
	})

	// Fault-injection control (internal/fault): inspect, arm, or disarm
	// the process's failpoint schedule.
	mux.Handle("/v1/faults", fault.Handler())

	// The tracer middleware wraps the whole API, so every request — the
	// session lifecycle, replica ingest from a shipping primary, even
	// health checks — carries a trace in its context, echoes its ID in
	// X-Relm-Trace, and lands in the /v1/traces ring.
	return m.Tracer().Middleware(mux)
}

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	Node   string            `json:"node,omitempty"`
	Traces []obs.TraceRecord `json:"traces"`
}

// writePromMetrics renders a Metrics snapshot in the Prometheus text
// exposition format: lifetime counters, WAL/replica/repository gauges,
// and every stage histogram as cumulative buckets.
func writePromMetrics(w io.Writer, mt Metrics) {
	p := obs.NewPromWriter(w)
	p.Gauge("relm_sessions", "Live sessions.", float64(mt.Sessions))
	for state, n := range mt.SessionsByState {
		p.Gauge("relm_sessions_by_state", "Live sessions by state.", float64(n), "state", state)
	}
	p.Counter("relm_observations_total", "Recorded experiments (including replayed).", float64(mt.Observations))
	p.Counter("relm_evictions_total", "TTL session evictions.", float64(mt.Evictions))
	p.Counter("relm_warm_starts_total", "Repository-seeded sessions.", float64(mt.WarmStarts))
	p.Counter("relm_surrogate_fits_total", "Full surrogate hyperparameter selections.", float64(mt.SurrogateFits))
	p.Counter("relm_surrogate_appends_total", "Incremental surrogate appends.", float64(mt.SurrogateAppends))
	p.Counter("relm_surrogate_compactions_total", "Budgeted surrogate active-set compactions.", float64(mt.SurrogateCompactions))
	p.Gauge("relm_repo_entries", "Model repository entries.", float64(mt.RepoEntries))
	p.Counter("relm_repo_hits_total", "Warm-start repository matches.", float64(mt.RepoHits))
	p.Counter("relm_repo_evictions_total", "Repository capacity evictions.", float64(mt.RepoEvictions))
	drain := 0.0
	if mt.Draining {
		drain = 1
	}
	p.Gauge("relm_draining", "1 while the node is draining.", drain)
	if mt.Persistence {
		p.Gauge("relm_wal_bytes", "WAL size across segments.", float64(mt.Store.WALBytes))
		p.Counter("relm_wal_events_total", "Events journaled to the WAL.", float64(mt.Store.WALEvents))
		p.Gauge("relm_wal_segments", "Live WAL segments.", float64(mt.Store.Segments))
		p.Counter("relm_wal_pruned_segments_total", "Sealed segments deleted by compaction.", float64(mt.Store.PrunedSegments))
		p.Counter("relm_wal_commit_batches_total", "Group-commit batches flushed.", float64(mt.Store.Batches))
		p.Counter("relm_wal_batched_events_total", "Records flushed through group commit.", float64(mt.Store.BatchedEvents))
		p.Counter("relm_snapshots_total", "Compacted snapshots written.", float64(mt.Store.Snapshots))
		p.Gauge("relm_snapshot_bytes", "Latest snapshot size.", float64(mt.Store.SnapshotBytes))
		degraded := 0.0
		if mt.Store.Degraded {
			degraded = 1
		}
		p.Gauge("relm_wal_degraded", "1 while the WAL is degraded (read-only).", degraded)
	}
	if mt.Replication {
		p.Gauge("relm_replica_followers", "Configured ship targets.", float64(mt.Replica.Followers))
		p.Gauge("relm_replica_segments_behind", "Segments with unshipped bytes across followers.", float64(mt.Replica.SegmentsBehind))
		p.Gauge("relm_replica_bytes_behind", "Unshipped WAL bytes across followers.", float64(mt.Replica.BytesBehind))
		p.Counter("relm_replica_ships_total", "Acknowledged ship requests.", float64(mt.Replica.Ships))
		p.Counter("relm_replica_ship_errors_total", "Failed ship requests.", float64(mt.Replica.ShipErrors))
		p.Gauge("relm_replica_primaries", "Primaries this node holds replicas for.", float64(mt.Replica.Primaries))
		p.Counter("relm_replica_ingests_total", "Replica ingest appends.", float64(mt.Replica.Ingests))
		p.Counter("relm_replica_ingest_bytes_total", "Replica bytes ingested.", float64(mt.Replica.IngestBytes))
		p.Counter("relm_replica_promotions_total", "Replicas promoted on this node.", float64(mt.Replica.Promotions))
	}
	p.StageHistograms("relm_stage_latency_seconds", "Per-stage latency distribution.", mt.Stages)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSONLimit(w, r, v, 1<<20)
}

func decodeJSONLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before writing the header so an encoding failure (e.g. a NaN
	// float) surfaces as a 500 instead of a silent empty 200.
	buf, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf)
	_, _ = w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		code = http.StatusGone
	case errors.Is(err, ErrBusy), errors.Is(err, ErrTooMany):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrExists):
		code = http.StatusConflict
	case errors.Is(err, ErrManagerDown), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrJournal), errors.Is(err, store.ErrDegraded), errors.Is(err, fault.ErrInjected):
		// Store append/fsync failures (and injected faults) refused the
		// operation before mutating anything: the request is retriable —
		// here after the fault clears, or on another node via the router's
		// next-candidate walk. Retry-After marks it as such.
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	default:
		code = http.StatusBadRequest
	}
	writeJSON(w, code, errorJSON{Error: err.Error()})
}
