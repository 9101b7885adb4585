// Package agentserver exposes a trained MiniCost agent as an HTTP service —
// the deployment shape the paper describes in §4.2: "a reinforcement
// learning agent, which is responsible for generating the data storage type
// assignment plan periodically, is deployed on a server belonging to the
// web application. It monitors the request frequencies, changes of data
// storage types and the change of data size."
//
// The service ingests daily per-file observations (POST /v1/observe),
// maintains each file's trailing frequency history in a sharded
// struct-of-arrays store (store.go), and produces tier assignment plans
// (GET /v1/plan) with the greedy policy of the loaded agent. Plans are
// incremental by default: only files whose observed features changed since
// the last plan are re-decided; the rest serve their cached assignment
// (GET /v1/plan?full=1 forces a full re-decision — bitwise-identical, just
// slower). Everything is stdlib net/http + encoding/json.
package agentserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"minicost/internal/obs"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// MaxObserveBytes is the default cap on a /v1/observe request body; larger
// payloads are rejected with 413 before decoding. At ~100 bytes per file
// observation this admits batches of ~80k files per day — raise it through
// Config.MaxObserveBytes (minicostd -max-observe-bytes) for million-file
// batches.
const MaxObserveBytes = 8 << 20

// ingestFanoutThreshold is the observe batch size below which ingestion
// runs the shards serially: fanning goroutines out for a handful of files
// costs more than the shard work.
const ingestFanoutThreshold = 2048

// FileObservation is one file's daily measurement.
type FileObservation struct {
	ID     string  `json:"id"`
	SizeGB float64 `json:"size_gb"`
	Reads  float64 `json:"reads"`
	Writes float64 `json:"writes"`
}

// ObserveRequest is the POST /v1/observe payload: one day's observations.
type ObserveRequest struct {
	Files []FileObservation `json:"files"`
}

// ObserveResponse reports ingestion counts.
type ObserveResponse struct {
	Accepted int `json:"accepted"`
	Tracked  int `json:"tracked"`
	// Duplicates counts batch entries whose ID already appeared earlier in
	// the same batch. Semantics are last-wins: the later entry replaces the
	// earlier one's measurement for the day (the history window advances
	// once per file per batch).
	Duplicates int `json:"duplicates"`
}

// PlanEntry is one file's assignment in a plan.
type PlanEntry struct {
	ID   string `json:"id"`
	Tier string `json:"tier"`
	// Changed reports whether this decision differs from the file's current
	// tier (i.e. a transition the operator must execute).
	Changed bool `json:"changed"`
}

// PlanResponse is the GET /v1/plan payload.
type PlanResponse struct {
	Day        int         `json:"day"`
	Files      []PlanEntry `json:"files"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Transition int         `json:"transitions"`
	// Decided is how many files the plan actually re-decided; the rest
	// served their cached assignment. Full reports whether this was a full
	// re-decision (?full=1 or the first plan after a policy swap).
	Decided int  `json:"decided"`
	Full    bool `json:"full"`
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	TrackedFiles int     `json:"tracked_files"`
	Observations int64   `json:"observations"`
	PlansServed  int64   `json:"plans_served"`
	LastPlanMS   float64 `json:"last_plan_ms"`
	HistLen      int     `json:"hist_len"`
	// Replicas is how many network replicas the serving pool has built for
	// the current agent snapshot — bounded by peak request concurrency, not
	// by request volume.
	Replicas int64 `json:"replicas"`
	// Shard occupancy: partition count, the most and least populated
	// shard, and the pending-decision (dirty) total across shards.
	Shards        int `json:"shards"`
	MaxShardFiles int `json:"max_shard_files"`
	MinShardFiles int `json:"min_shard_files"`
	DirtyFiles    int `json:"dirty_files"`
	// MaxShardDay/MinShardDay are the per-shard observe-batch counters;
	// they diverge when observe batches only touch a subset of shards.
	MaxShardDay int64 `json:"max_shard_day"`
	MinShardDay int64 `json:"min_shard_day"`
}

// ObserveTap receives every validated /v1/observe batch after the serving
// store has ingested it — the hook the online learner's replay buffer hangs
// off (internal/online). The call runs inline on the serve path with the
// batch day counter and the raw (already validated) entries; implementations
// must be safe for concurrent calls and must not retain the slice past the
// call.
//
// Two costs of the inline contract. First, under concurrent observe
// requests day values can reach the tap out of order (the counter is
// incremented before the unsynchronized tap call), so implementations must
// not assume monotone days — the online learner sidesteps this by keying
// its gap statistics on per-file observation ordinals instead. Second, any
// lock a tap takes inside TapObserve serializes the observe hot path across
// requests; the learner's single tap mutex does exactly that, which is
// acceptable because its per-batch work is flat array writes and O(buckets)
// scoring, but a tap doing heavy work inline would become the ingest
// bottleneck.
type ObserveTap interface {
	TapObserve(day int64, files []FileObservation)
}

// Config tunes the serving state tier. The zero value selects the
// defaults.
type Config struct {
	// Shards is the tracked-state partition count, rounded up to a power
	// of two. 0 selects DefaultShards.
	Shards int
	// MaxObserveBytes caps a /v1/observe body. 0 selects MaxObserveBytes.
	MaxObserveBytes int64
	// Workers bounds the observe/plan shard fan-out. 0 selects
	// par.DefaultWorkers at each call.
	Workers int
	// Tap, when non-nil, is invoked with every validated observe batch
	// after ingestion (the online learner's feed). nil disables the tap.
	Tap ObserveTap
}

// Server wraps an agent with sharded observation state. Create with New or
// NewWithConfig, mount via Handler.
//
// Serving uses a replica pool instead of one network per request: BuildPlan
// borrows a pooled replica per shard worker, computes decisions with
// batched forward passes outside the shard locks, and returns the replicas
// — so concurrent plan requests cost at most one network copy per worker at
// peak, and repeated requests cost none. UpdateAgent refreshes the pool
// when a new training snapshot lands and marks every file dirty so the
// next plan re-decides the world under the new weights.
type Server struct {
	pool    *rl.ReplicaPool
	histLen int
	initial pricing.Tier
	workers int

	shards    []*shard
	shardMask uint32

	maxObserveBytes int64
	tap             ObserveTap

	day          atomic.Int64
	batchSeq     atomic.Uint64
	observations atomic.Int64
	plansServed  atomic.Int64
	lastPlanUS   atomic.Int64 // microseconds; 0 until the first plan
	lastPlanAt   atomic.Int64 // unix nanos; 0 until the first plan

	met serveMetrics
}

// serveMetrics are the server's obs instruments (DESIGN.md §12). They live
// in the default registry, which is off outside daemons, so recording costs
// one atomic load per op in tests and examples.
type serveMetrics struct {
	observations *obs.Counter
	duplicates   *obs.Counter
	plans        *obs.Counter
	decisions    *obs.Counter
	transitions  *obs.Counter
	tracked      *obs.Gauge
	shards       *obs.Gauge
	planGen      *obs.Timer
}

func newServeMetrics() serveMetrics {
	reg := obs.Default()
	return serveMetrics{
		observations: reg.Counter("minicost_serve_observations_total",
			"Per-file daily observations ingested via /v1/observe."),
		duplicates: reg.Counter("minicost_serve_duplicate_observations_total",
			"Observe-batch entries that duplicated an earlier ID in the same batch (last entry wins)."),
		plans: reg.Counter("minicost_serve_plans_total",
			"Assignment plans generated via /v1/plan."),
		decisions: reg.Counter("minicost_serve_plan_decisions_total",
			"Files re-decided by generated plans (incremental plans skip clean files)."),
		transitions: reg.Counter("minicost_serve_transitions_total",
			"Tier transitions the generated plans asked the operator to execute."),
		tracked: reg.Gauge("minicost_serve_tracked_files",
			"Files currently tracked by the agent server."),
		shards: reg.Gauge("minicost_serve_shards",
			"Tracked-state partitions in the serving store."),
		planGen: reg.Timer("minicost_serve_plan_seconds",
			"Plan generation time: dirty snapshot, batched forward passes, merge."),
	}
}

// New builds a server around a trained agent with the default
// configuration. Files start in initial (usually hot).
func New(agent *rl.Agent, initial pricing.Tier) (*Server, error) {
	return NewWithConfig(agent, initial, Config{})
}

// NewWithConfig builds a server with an explicit shard count, body cap,
// and fan-out width.
func NewWithConfig(agent *rl.Agent, initial pricing.Tier, cfg Config) (*Server, error) {
	if agent == nil {
		return nil, errors.New("agentserver: nil agent")
	}
	if !initial.Valid() {
		return nil, errors.New("agentserver: invalid initial tier")
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 0 || shards > 1<<16 {
		return nil, fmt.Errorf("agentserver: shard count %d out of range", cfg.Shards)
	}
	shards = ceilPow2(shards)
	maxBytes := cfg.MaxObserveBytes
	if maxBytes == 0 {
		maxBytes = MaxObserveBytes
	}
	if maxBytes < 0 {
		return nil, fmt.Errorf("agentserver: negative observe body cap %d", cfg.MaxObserveBytes)
	}
	s := &Server{
		pool:            rl.NewReplicaPool(agent.Clone()),
		histLen:         agent.Net.HistLen,
		initial:         initial,
		workers:         cfg.Workers,
		shards:          make([]*shard, shards),
		shardMask:       uint32(shards - 1),
		maxObserveBytes: maxBytes,
		tap:             cfg.Tap,
		met:             newServeMetrics(),
	}
	for i := range s.shards {
		s.shards[i] = newShard(s.histLen)
	}
	s.met.shards.Set(float64(shards))
	// Derived gauges are computed at scrape time. Registered per server,
	// newest instance wins (one server per daemon).
	reg := obs.Default()
	reg.GaugeFunc("minicost_serve_plan_staleness_seconds",
		"Seconds since the last plan was generated (NaN before the first).",
		func() float64 {
			at := s.lastPlanAt.Load()
			if at == 0 {
				return math.NaN()
			}
			return time.Since(time.Unix(0, at)).Seconds()
		})
	reg.GaugeFunc("minicost_serve_dirty_files",
		"Files whose features changed since the last plan (pending re-decision).",
		func() float64 {
			n := 0
			for _, sh := range s.shards {
				n += sh.dirtyCount()
			}
			return float64(n)
		})
	return s, nil
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the store's partition count.
func (s *Server) Shards() int { return len(s.shards) }

// SetTap installs the observe tap after construction — minicostd builds the
// server first, then the online learner (which needs the server), then taps
// it. Call before the server starts taking traffic; the field is read
// without synchronization on the observe path.
func (s *Server) SetTap(tap ObserveTap) { s.tap = tap }

// UpdateAgent swaps in a fresh training snapshot. Pooled replicas of the
// previous snapshot are invalidated; in-flight plans finish on the weights
// they started with. Every tracked file is marked dirty — cached plan
// decisions were made by the previous weights — so the next incremental
// plan re-decides the full population. The new agent must keep the
// history-window length the observation state was built for.
func (s *Server) UpdateAgent(agent *rl.Agent) error {
	if agent == nil {
		return errors.New("agentserver: nil agent")
	}
	if agent.Net.HistLen != s.histLen {
		return fmt.Errorf("agentserver: snapshot hist window %d, server tracks %d", agent.Net.HistLen, s.histLen)
	}
	s.pool.Swap(agent.Clone())
	for _, sh := range s.shards {
		sh.markAllDirty()
	}
	return nil
}

// Observe ingests one day's batch. The batch is validated up front and
// rejected without mutation on any bad entry; ingestion then fans out
// across the shards (par.ForShards), each shard applying its own entries
// under its own lock — no global lock on the hot path. Duplicate IDs
// within the batch are last-wins and counted in the response.
func (s *Server) Observe(req *ObserveRequest) (*ObserveResponse, error) {
	if req == nil {
		return nil, errors.New("agentserver: nil observation batch")
	}
	n := len(req.Files)
	if n == 0 {
		return nil, errors.New("agentserver: empty observation batch")
	}
	for i := range req.Files {
		f := &req.Files[i]
		if f.ID == "" {
			return nil, errors.New("agentserver: observation without id")
		}
		if !validObservation(f) {
			return nil, fmt.Errorf("agentserver: invalid observation for %q", f.ID)
		}
	}
	seq := s.batchSeq.Add(1)
	dups := 0
	if len(s.shards) == 1 {
		dups = s.shards[0].ingestBatch(req.Files, nil, seq, s.initial)
	} else {
		offsets, order := s.bucketByShard(req.Files)
		if n < ingestFanoutThreshold {
			for si := range s.shards {
				dups += s.shards[si].ingestBatch(req.Files, order[offsets[si]:offsets[si+1]], seq, s.initial)
			}
		} else {
			perShard := make([]int, len(s.shards))
			par.ForShards(len(s.shards), s.workers, func(si int) {
				perShard[si] = s.shards[si].ingestBatch(req.Files, order[offsets[si]:offsets[si+1]], seq, s.initial)
			})
			for _, d := range perShard {
				dups += d
			}
		}
	}
	day := s.day.Add(1)
	if s.tap != nil {
		// The tap runs inline after ingestion so a buffered batch is never
		// ahead of the serving store; the learner's tap is allocation-free
		// in steady state, keeping the observe hot path's alloc gate intact.
		s.tap.TapObserve(day, req.Files)
	}
	s.observations.Add(int64(n))
	tracked := s.tracked()
	s.met.observations.Add(float64(n))
	s.met.duplicates.Add(float64(dups))
	s.met.tracked.Set(float64(tracked))
	return &ObserveResponse{Accepted: n, Tracked: tracked, Duplicates: dups}, nil
}

// validObservation reports whether an observation's numbers are usable: a
// finite positive size and finite non-negative request counts. NaN fails
// every comparison, so it is rejected along with ±Inf. JSON cannot carry
// either, but Go API callers can.
func validObservation(f *FileObservation) bool {
	const maxF = math.MaxFloat64
	return f.SizeGB > 0 && f.SizeGB <= maxF &&
		f.Reads >= 0 && f.Reads <= maxF &&
		f.Writes >= 0 && f.Writes <= maxF
}

// bucketByShard partitions batch positions by owning shard with a stable
// counting sort, so each shard sees its entries in batch order (the
// last-wins duplicate contract depends on that).
func (s *Server) bucketByShard(files []FileObservation) (offsets []int32, order []int32) {
	p := len(s.shards)
	n := len(files)
	home := make([]int32, n)
	counts := make([]int32, p+1)
	for i := range files {
		si := int32(ShardOf(files[i].ID, s.shardMask))
		home[i] = si
		counts[si+1]++
	}
	for i := 1; i <= p; i++ {
		counts[i] += counts[i-1]
	}
	pos := make([]int32, p)
	for i := 1; i < p; i++ {
		pos[i] = counts[i]
	}
	order = make([]int32, n)
	for i := range home {
		order[pos[home[i]]] = int32(i)
		pos[home[i]]++
	}
	return counts, order
}

// tracked sums the shard populations without taking any lock.
func (s *Server) tracked() int {
	n := int64(0)
	for _, sh := range s.shards {
		n += sh.files.Load()
	}
	return int(n)
}

// BuildPlan produces the current assignment for every tracked file and
// commits the decisions as the files' current tiers (the operator is
// assumed to execute the plan, as System.Run does).
//
// Incremental contract: with full=false only files marked dirty since the
// last plan are re-decided; every other file serves the cached decision of
// the plan that last saw its features. Because DecideBatch is bitwise
// row-independent, the incremental plan equals the full re-plan bit for bit
// (TestIncrementalPlanEqualsFull pins this at shard counts 1, 4, and 16).
//
// Each shard plans on its own goroutine: dirty snapshot and feature
// packing under the shard lock, batched forward passes with it released,
// commit and ID-ordered entry building under the lock again, then a P-way
// merge produces the globally ID-sorted response.
func (s *Server) BuildPlan(full bool) (*PlanResponse, error) {
	sw := s.met.planGen.Start()
	start := time.Now()
	if s.tracked() == 0 {
		return nil, errors.New("agentserver: no observations yet")
	}
	day := int(s.day.Load())
	p := len(s.shards)
	parts := make([][]PlanEntry, p)
	decided := make([]int, p)
	transitions := make([]int, p)
	par.ForShards(p, s.workers, func(si int) {
		sh := s.shards[si]
		sh.planMu.Lock()
		m := sh.snapshotDecisions(full)
		if m > 0 {
			rep := s.pool.Get()
			sh.decide(rep.Agent, m)
			s.pool.Put(rep)
		}
		epoch, trans := sh.commit(m)
		parts[si] = sh.buildEntries(epoch)
		sh.planMu.Unlock()
		decided[si] = m
		transitions[si] = trans
	})
	resp := &PlanResponse{Day: day, Files: mergeEntries(parts), Full: full}
	for si := 0; si < p; si++ {
		resp.Decided += decided[si]
		resp.Transition += transitions[si]
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.plansServed.Add(1)
	s.lastPlanUS.Store(time.Since(start).Microseconds())
	s.lastPlanAt.Store(time.Now().UnixNano())
	s.met.plans.Inc()
	s.met.decisions.Add(float64(resp.Decided))
	s.met.transitions.Add(float64(resp.Transition))
	s.met.tracked.Set(float64(s.tracked()))
	sw.Stop()
	return resp, nil
}

// Stats snapshots counters and shard occupancy.
func (s *Server) Stats() *StatsResponse {
	resp := &StatsResponse{
		TrackedFiles: s.tracked(),
		Observations: s.observations.Load(),
		PlansServed:  s.plansServed.Load(),
		LastPlanMS:   float64(s.lastPlanUS.Load()) / 1000,
		HistLen:      s.histLen,
		Replicas:     s.pool.Created(),
		Shards:       len(s.shards),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		files := len(sh.ids)
		dirty := len(sh.dirty)
		shDay := sh.day
		sh.mu.Unlock()
		resp.DirtyFiles += dirty
		if i == 0 || files > resp.MaxShardFiles {
			resp.MaxShardFiles = files
		}
		if i == 0 || files < resp.MinShardFiles {
			resp.MinShardFiles = files
		}
		if i == 0 || shDay > resp.MaxShardDay {
			resp.MaxShardDay = shDay
		}
		if i == 0 || shDay < resp.MinShardDay {
			resp.MinShardDay = shDay
		}
	}
	return resp
}

// Handler returns the HTTP mux:
//
//	POST /v1/observe        ingest one day's observations
//	GET  /v1/plan[?full=1]  current assignment plan (commits decisions);
//	                        full=1 forces re-deciding every file
//	GET  /v1/stats          counters and shard occupancy
//	GET  /v1/healthz        liveness
//
// Every endpoint is instrumented: request counts by endpoint and outcome
// (minicost_http_requests_total) and a latency histogram per endpoint
// (minicost_http_request_seconds).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/observe", instrument("observe", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		// Reject declared non-JSON payloads up front with 415 rather than a
		// confusing decode error; an absent Content-Type is tolerated.
		if ct := r.Header.Get("Content-Type"); ct != "" && !isJSONContentType(ct) {
			httpError(w, http.StatusUnsupportedMediaType, "Content-Type must be application/json")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.maxObserveBytes)
		var req ObserveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("observation batch exceeds %d bytes", s.maxObserveBytes))
				return
			}
			httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
			return
		}
		resp, err := s.Observe(&req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/plan", instrument("plan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		full := false
		switch v := r.URL.Query().Get("full"); v {
		case "", "0", "false":
		case "1", "true":
			full = true
		default:
			httpError(w, http.StatusBadRequest, "full must be 0 or 1")
			return
		}
		resp, err := s.BuildPlan(full)
		if err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/stats", instrument("stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	}))
	mux.HandleFunc("/v1/healthz", instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	return mux
}

// isJSONContentType accepts application/json with optional parameters
// (charset) and +json suffixed types.
func isJSONContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.ToLower(strings.TrimSpace(ct))
	return ct == "application/json" || strings.HasSuffix(ct, "+json")
}

// instrument wraps an endpoint handler with its request counters and
// latency histogram. Metrics are looked up once at mux construction, not
// per request.
func instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reg := obs.Default()
	ok := reg.Counter("minicost_http_requests_total",
		"HTTP requests served, by endpoint and outcome.",
		obs.L("endpoint", endpoint), obs.L("status", "ok"))
	failed := reg.Counter("minicost_http_requests_total",
		"HTTP requests served, by endpoint and outcome.",
		obs.L("endpoint", endpoint), obs.L("status", "error"))
	lat := reg.Timer("minicost_http_request_seconds",
		"HTTP request latency by endpoint.", obs.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		sw := lat.Start()
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h(cw, r)
		sw.Stop()
		if cw.code >= 400 {
			failed.Inc()
		} else {
			ok.Inc()
		}
	}
}

// codeWriter captures the response status for the outcome counters.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
