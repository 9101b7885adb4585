// Package core assembles MiniCost, the paper's system (Fig. 5): an RL agent
// deployed on the web application's side that monitors per-file request
// frequencies, trains an A3C policy on historical data, and every day
// generates a data-storage-type assignment plan executed against the cloud
// store; the concurrent-request aggregation enhancement (§5.2) runs on its
// weekly cadence alongside.
package core

import (
	"errors"
	"fmt"
	"time"

	"minicost/internal/aggregate"
	"minicost/internal/cloudsim"
	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// Config configures a MiniCost system.
type Config struct {
	// Pricing is the CSP's price schedule; nil selects pricing.Azure().
	Pricing *pricing.Policy
	// A3C is the training configuration (§6.1 defaults via
	// rl.DefaultA3CConfig).
	A3C rl.A3CConfig
	// Reward is Eq. 4's parameterisation.
	Reward mdp.RewardConfig
	// TrainSteps is the number of environment steps for Train.
	TrainSteps int64
	// InitialTier is where files start (web applications default to hot).
	InitialTier pricing.Tier
	// Aggregation enables the §5.2 enhancement when non-nil.
	Aggregation *aggregate.Config
	// AggregationPeriod is the cadence (days) of Algorithm 2; 0 means 7.
	AggregationPeriod int
	// Workers bounds serving-time parallelism.
	Workers int
}

// DefaultConfig returns the paper's configuration without the enhancement.
func DefaultConfig() Config {
	return Config{
		Pricing:     pricing.Azure(),
		A3C:         rl.DefaultA3CConfig(),
		Reward:      mdp.DefaultReward(),
		TrainSteps:  200000,
		InitialTier: pricing.Hot,
	}
}

// System is a MiniCost instance.
type System struct {
	cfg   Config
	model *costmodel.Model
	a3c   *rl.A3C
	agent *rl.Agent
}

// New validates the configuration and builds the (untrained) system.
func New(cfg Config) (*System, error) {
	if cfg.Pricing == nil {
		cfg.Pricing = pricing.Azure()
	}
	if err := cfg.Pricing.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.A3C.Validate(); err != nil {
		return nil, err
	}
	if !cfg.InitialTier.Valid() {
		return nil, fmt.Errorf("core: invalid initial tier")
	}
	if cfg.TrainSteps < 0 {
		return nil, fmt.Errorf("core: TrainSteps %d", cfg.TrainSteps)
	}
	if cfg.Aggregation != nil {
		if err := cfg.Aggregation.Validate(); err != nil {
			return nil, err
		}
	}
	a3c, err := rl.NewA3C(cfg.A3C)
	if err != nil {
		return nil, err
	}
	return &System{
		cfg:   cfg,
		model: costmodel.New(cfg.Pricing),
		a3c:   a3c,
	}, nil
}

// Model exposes the system's cost model.
func (s *System) Model() *costmodel.Model { return s.model }

// Train fits the agent on a historical trace (the paper trains on a random
// 80 % of the collected trace). It can be called repeatedly; training
// continues from the current parameters.
func (s *System) Train(hist *trace.Trace) (rl.TrainStats, error) {
	if err := hist.Validate(); err != nil {
		return rl.TrainStats{}, err
	}
	if s.cfg.TrainSteps == 0 {
		s.agent = s.a3c.Snapshot()
		return rl.TrainStats{}, nil
	}
	// Train in chunks with validation-based snapshot selection: the served
	// policy is the best snapshot of the run, not whatever the last
	// gradient step happened to leave (see rl.TrainWithSelection).
	agent, stats, err := rl.TrainWithSelection(s.a3c, s.model, hist, s.cfg.Reward, s.cfg.TrainSteps, 5, s.cfg.InitialTier)
	if err != nil {
		return rl.TrainStats{}, err
	}
	s.agent = agent
	return stats, nil
}

// SetAgent installs a pre-trained agent (used by experiments sharing one
// training run across many evaluations).
func (s *System) SetAgent(agent *rl.Agent) { s.agent = agent }

// Agent returns the serving agent (nil before Train/SetAgent).
func (s *System) Agent() *rl.Agent { return s.agent }

// Trainer exposes the underlying A3C trainer (for convergence experiments).
func (s *System) Trainer() *rl.A3C { return s.a3c }

// RunReport is the outcome of serving a trace.
type RunReport struct {
	// Total is the bill for the whole run; Daily the per-day ledger.
	Total costmodel.Breakdown
	Daily []costmodel.Breakdown
	// DecisionTime is the wall-clock time the assignment algorithm spent
	// per served day (Fig. 12's computing overhead).
	DecisionTime []time.Duration
	// TierChanges counts executed tier transitions.
	TierChanges int
	// AggregatedGroups is the number of groups with an active replica at
	// the end of the run.
	AggregatedGroups int
}

// TotalDecisionTime sums the per-day decision times.
func (r *RunReport) TotalDecisionTime() time.Duration {
	var total time.Duration
	for _, d := range r.DecisionTime {
		total += d
	}
	return total
}

// ErrUntrained is returned by Run before the agent exists.
var ErrUntrained = errors.New("core: system has no trained agent; call Train first")

// Run serves a test trace day by day against a simulated store:
// every day the trained agent assigns each file's tier from the trailing
// frequency history (Algorithm 1's serving loop); when aggregation is
// enabled, Algorithm 2 re-evaluates groups on its period, creating and
// evicting replica objects. The returned report carries the ground-truth
// bill from the store's meter.
func (s *System) Run(tr *trace.Trace) (*RunReport, error) {
	if s.agent == nil {
		return nil, ErrUntrained
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	store, ids := cloudsim.FromTrace(s.model, tr, s.cfg.InitialTier)

	n := tr.NumFiles()
	histLen := s.cfg.A3C.Net.HistLen
	reward := s.cfg.Reward
	envs := make([]*mdp.Env, n)
	states := make([]mdp.State, n)
	for i := range envs {
		env, err := mdp.NewEnv(s.model, tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], s.cfg.InitialTier, histLen, reward)
		if err != nil {
			return nil, err
		}
		// Each day's states are encoded before the envs step, so recycled
		// observations are safe here.
		env.EnableStateReuse()
		envs[i] = env
		states[i] = env.Reset()
	}

	var agg *aggregate.Aggregator
	aggPeriod := s.cfg.AggregationPeriod
	if aggPeriod <= 0 {
		aggPeriod = 7
	}
	if s.cfg.Aggregation != nil {
		var err error
		agg, err = aggregate.New(s.model, *s.cfg.Aggregation)
		if err != nil {
			return nil, err
		}
	}
	// replicaOf maps group index -> replica object id.
	replicaOf := make(map[int]cloudsim.ObjectID)

	report := &RunReport{}
	reads := make([]float64, n)
	writes := make([]float64, n)
	// The batched engine, as in policy.RL: pooled replicas (the network
	// caches activations, so one replica per concurrent chunk) decide
	// DefaultBatchRows-row chunks of one day-wide feature matrix.
	pool := rl.NewReplicaPool(s.agent)
	feats := mat.New(n, mdp.FeatureDim(histLen))
	decisions := make([]pricing.Tier, n)

	for day := 0; day < tr.Days; day++ {
		// 1. Decide today's tiers (timed: this is Fig. 12's overhead).
		// Decisions are independent across files, so chunks shard across
		// workers — the serving-side counterpart of the paper's cluster
		// parallelism.
		start := time.Now()
		par.ForBatched(n, rl.DefaultBatchRows, s.cfg.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				states[i].FeaturesInto(feats.Row(i))
			}
			var x mat.Matrix
			feats.SliceRows(&x, lo, hi)
			rep := pool.Get()
			rep.DecideBatch(&x, decisions[lo:hi], 1)
			pool.Put(rep)
		})
		report.DecisionTime = append(report.DecisionTime, time.Since(start))

		// 2. Execute the plan on the store.
		for i, tier := range decisions {
			prev, err := store.Tier(ids[i])
			if err != nil {
				return nil, err
			}
			if prev != tier {
				report.TierChanges++
			}
			if err := store.SetTier(ids[i], tier); err != nil {
				return nil, err
			}
			// Keep the MDP views in sync so tomorrow's states are right.
			next, _, _, _, err := envs[i].Step(tier)
			if err != nil {
				return nil, err
			}
			states[i] = next
		}

		// 3. Aggregation maintenance on its weekly cadence (needs at least
		// one observed day).
		if agg != nil && day > 0 && day%aggPeriod == 0 {
			create, del, err := agg.Update(tr, day)
			if err != nil {
				return nil, err
			}
			for _, gi := range del {
				if id, ok := replicaOf[gi]; ok {
					if err := store.RemoveObject(id); err != nil {
						return nil, err
					}
					delete(replicaOf, gi)
				}
			}
			for _, gi := range create {
				members := make([]cloudsim.ObjectID, len(tr.Groups[gi].Members))
				for j, m := range tr.Groups[gi].Members {
					members[j] = ids[m]
				}
				id, err := store.AddReplica(members, s.cfg.Aggregation.ReplicaTier)
				if err != nil {
					return nil, err
				}
				replicaOf[gi] = id
			}
		}

		// 4. Serve today's requests: concurrent reads of aggregated groups
		// hit the replica instead of every member.
		for i := range reads {
			reads[i] = tr.Reads[i][day]
			writes[i] = tr.Writes[i][day]
		}
		allReads := reads
		allWrites := writes
		if store.NumObjects() > n {
			allReads = make([]float64, store.NumObjects())
			allWrites = make([]float64, store.NumObjects())
			copy(allReads, reads)
			copy(allWrites, writes)
		}
		for gi, id := range replicaOf {
			rdc := tr.Groups[gi].Concurrent[day]
			allReads[id] += rdc
			for _, m := range tr.Groups[gi].Members {
				allReads[m] -= rdc
				if allReads[m] < 0 {
					allReads[m] = 0
				}
			}
		}
		bd, err := store.ServeDay(allReads, allWrites)
		if err != nil {
			return nil, err
		}
		report.Daily = append(report.Daily, bd)
	}
	report.Total = store.TotalBill()
	report.AggregatedGroups = len(replicaOf)
	return report, nil
}

// Assigner returns this system's trained agent wrapped as a policy.Assigner
// (for side-by-side comparison with the baselines).
func (s *System) Assigner() (policy.Assigner, error) {
	if s.agent == nil {
		return nil, ErrUntrained
	}
	return policy.RL{Agent: s.agent, HistLen: s.cfg.A3C.Net.HistLen, Workers: s.cfg.Workers}, nil
}
