package rl

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/obs"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// A3CConfig configures training. Defaults follow §6.1: learning rate 0.0027
// (Fig. 9 finds ~0.0028 optimal), greedy rate ε = 0.1, and the paper's
// network architecture.
type A3CConfig struct {
	Net NetConfig
	// LearningRate is swept by Fig. 9.
	LearningRate float64
	// Gamma discounts future rewards; the paper optimizes over a 7-day
	// horizon, so the default 0.9 keeps ~half the mass within a week.
	Gamma float64
	// Epsilon is the greedy (exploration) rate swept by Fig. 10.
	Epsilon float64
	// ExploreHold keeps an ε-exploration action for this many consecutive
	// days. Tier economics mix slowly — entering archive pays a transition
	// fee that only amortises over days of occupancy — so one-step random
	// actions always look bad and the policy never discovers cheap tiers.
	// Sticky exploration samples sustained occupancy instead.
	ExploreHold int
	// EntropyBeta weighs the entropy bonus that keeps π from collapsing.
	EntropyBeta float64
	// LogitDecay adds an L2 pull on the actor's output logits. The entropy
	// bonus alone cannot prevent saturation: at π ≈ 1 both the policy and
	// entropy gradients vanish, and RMSProp amplifies whatever residual
	// drift remains, so logits run away to magnitudes the policy can never
	// recover from. The decay term is the one gradient that *grows* with
	// logit magnitude, bounding saturation at |z| ≈ (typical grad)/decay.
	LogitDecay float64
	// NSteps is the rollout length per update (n-step advantage).
	NSteps int
	// Workers is the number of asynchronous actor-learners.
	Workers int
	// EnvsPerWorker is the number of environments each worker drives in
	// lockstep. 0 or 1 selects the classic per-env collection loop, whose
	// results are pinned bitwise against the single-sample reference; E ≥ 2
	// switches the worker to the vectorized rollout engine (vectrain.go):
	// one E-row ForwardBatch selects actions for every environment at once,
	// one batched pass bootstraps all critic values, and the n-step update
	// accumulates over E×NSteps transitions in a single BackwardBatch pair.
	// Episodes that end mid-rollout are reset in place and the return
	// recursion restarts at the boundary, so rollouts always carry the full
	// E×NSteps transitions. Each environment samples episodes and actions
	// from its own RNG substream split from the worker seed, so E > 1 runs
	// remain seed-deterministic at Workers=1.
	EnvsPerWorker int
	// Parallelism bounds the intra-update GEMM fan-out: it is the workers
	// argument handed to every ForwardBatch/BackwardBatch inside one
	// update. The default 0 (like 1) runs updates serially —
	// A3C's parallelism conventionally comes from Workers — but a
	// single-worker trainer on a big machine can parallelize inside each
	// update instead. Any value leaves training bitwise unchanged: the
	// parallel kernels shard only independent output elements (see mat).
	Parallelism int
	// GradClip bounds the global-update L2 norm; 0 disables.
	GradClip float64
	// NormalizeRewards divides rewards by a running RMS estimate before
	// computing returns. Eq. 4's reciprocal reward spans many orders of
	// magnitude across files (idle archive days earn thousands of times the
	// reward of busy hot days); without normalisation the early positive
	// advantages collapse the policy onto whatever action is sampled first.
	NormalizeRewards bool
	// AdvClip bounds the per-step advantage magnitude used in the policy
	// gradient (applied after reward normalisation); 0 disables.
	AdvClip float64
	// CriticLRMult scales the critic's learning rate relative to the
	// actor's. The critic must track value targets faster than the policy
	// drifts or early advantages stay one-sided; > 1 is standard.
	CriticLRMult float64
	// Optimizer selects "rmsprop" (A3C's default), "adam" or "sgd".
	Optimizer string
	// FinalLRFraction linearly anneals the learning rate to this fraction
	// of LearningRate over a TrainFrom call (1 disables annealing).
	// Late-stage annealing settles the policy oscillation that a constant
	// step size sustains.
	FinalLRFraction float64
	Seed            uint64
}

// DefaultA3CConfig returns the paper's training configuration.
func DefaultA3CConfig() A3CConfig {
	return A3CConfig{
		Net:              DefaultNetConfig(),
		LearningRate:     0.0027,
		Gamma:            0.9,
		Epsilon:          0.1,
		ExploreHold:      5,
		EntropyBeta:      0.01,
		LogitDecay:       0.01,
		NSteps:           7,
		Workers:          4,
		GradClip:         5,
		NormalizeRewards: true,
		AdvClip:          3,
		CriticLRMult:     5,
		Optimizer:        "rmsprop",
		FinalLRFraction:  0.1,
	}
}

// Validate checks the configuration.
func (c A3CConfig) Validate() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	switch {
	case c.LearningRate <= 0:
		return fmt.Errorf("rl: learning rate %v", c.LearningRate)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("rl: gamma %v outside [0,1)", c.Gamma)
	case c.Epsilon < 0 || c.Epsilon > 1:
		return fmt.Errorf("rl: epsilon %v", c.Epsilon)
	case c.ExploreHold < 0:
		return fmt.Errorf("rl: ExploreHold %d", c.ExploreHold)
	case c.NSteps <= 0:
		return fmt.Errorf("rl: NSteps %d", c.NSteps)
	case c.Workers <= 0:
		return fmt.Errorf("rl: Workers %d", c.Workers)
	case c.EnvsPerWorker < 0:
		return fmt.Errorf("rl: EnvsPerWorker %d", c.EnvsPerWorker)
	case c.Parallelism < 0:
		return fmt.Errorf("rl: Parallelism %d", c.Parallelism)
	case c.EntropyBeta < 0:
		return fmt.Errorf("rl: EntropyBeta %v", c.EntropyBeta)
	case c.LogitDecay < 0:
		return fmt.Errorf("rl: LogitDecay %v", c.LogitDecay)
	case c.GradClip < 0:
		return fmt.Errorf("rl: GradClip %v", c.GradClip)
	case c.AdvClip < 0:
		return fmt.Errorf("rl: AdvClip %v", c.AdvClip)
	case c.CriticLRMult <= 0:
		return fmt.Errorf("rl: CriticLRMult %v", c.CriticLRMult)
	case c.FinalLRFraction < 0 || c.FinalLRFraction > 1:
		return fmt.Errorf("rl: FinalLRFraction %v", c.FinalLRFraction)
	}
	switch c.Optimizer {
	case "rmsprop", "adam", "sgd":
	default:
		return fmt.Errorf("rl: unknown optimizer %q", c.Optimizer)
	}
	return nil
}

// envsPerWorker resolves the lockstep width (0 means the classic 1).
func (c A3CConfig) envsPerWorker() int {
	if c.EnvsPerWorker <= 0 {
		return 1
	}
	return c.EnvsPerWorker
}

// parallelism resolves the intra-update fan-out (0 means serial).
func (c A3CConfig) parallelism() int {
	if c.Parallelism <= 0 {
		return 1
	}
	return c.Parallelism
}

func (c A3CConfig) newOptimizer() nn.Optimizer {
	switch c.Optimizer {
	case "adam":
		return nn.NewAdam(c.LearningRate)
	case "sgd":
		return nn.NewSGD(c.LearningRate)
	default:
		return nn.NewRMSProp(c.LearningRate)
	}
}

// A3C is the asynchronous advantage actor–critic trainer of Fig. 6: a
// global parameter server (actor + critic vectors and shared optimizer
// state) that asynchronous workers pull parameters from and push
// accumulated gradients to.
//
// The global vectors live in a double-buffered store (batchtrain.go): the
// current buffer is published through an atomic pointer, every optimizer
// apply writes the updated vectors into the next buffer and swaps it in, and
// superseded buffers are recycled once their readers drain. Synchronization
// is therefore two-tier: a.mu serializes the apply (a short critical section
// per update), while pulls read the published buffer lock-free and never
// convoy on the writers' lock.
type A3C struct {
	cfg A3CConfig

	mu        sync.Mutex
	actorOpt  nn.Optimizer
	criticOpt nn.Optimizer

	// snap is the published parameter buffer (the master copy); retired
	// (guarded by mu) holds superseded buffers awaiting reader drain.
	snap    atomic.Pointer[paramSnap]
	retired []*paramSnap

	protoActor  *nn.Network
	protoCritic *nn.Network

	steps atomic.Int64
}

// NewA3C initializes the global networks and optimizers.
func NewA3C(cfg A3CConfig) (*A3C, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	actor := cfg.Net.BuildActor(r.Split(1))
	critic := cfg.Net.BuildCritic(r.Split(2))
	criticOpt := cfg.newOptimizer()
	criticOpt.SetLearningRate(cfg.LearningRate * cfg.CriticLRMult)
	a := &A3C{
		cfg:         cfg,
		actorOpt:    cfg.newOptimizer(),
		criticOpt:   criticOpt,
		protoActor:  actor,
		protoCritic: critic,
	}
	a.snap.Store(&paramSnap{actor: actor.ParamVector(), critic: critic.ParamVector()})
	return a, nil
}

// Config returns the training configuration.
func (a *A3C) Config() A3CConfig { return a.cfg }

// Steps returns the number of environment steps taken so far.
func (a *A3C) Steps() int64 { return a.steps.Load() }

// Snapshot returns a serving Agent with the current global actor weights.
func (a *A3C) Snapshot() *Agent {
	actor := a.protoActor.Clone()
	a.mu.Lock()
	actor.SetParamVector(a.snap.Load().actor)
	a.mu.Unlock()
	return NewAgent(a.cfg.Net, actor)
}

// CriticSnapshot returns a copy of the global critic network (diagnostics
// and the ablation benches use it to inspect learned values).
func (a *A3C) CriticSnapshot() *nn.Network {
	critic := a.protoCritic.Clone()
	a.mu.Lock()
	critic.SetParamVector(a.snap.Load().critic)
	a.mu.Unlock()
	return critic
}

// EnvSource supplies training episodes to workers. NewEnv returns a fresh
// environment owned exclusively by the caller; ReinitEnv re-targets an
// environment the caller already owns onto a new episode in place, which
// lets sources that support mdp.Env.Reinit (TraceSource) keep episode
// turnover allocation-free. Both methods are called concurrently from every
// worker and must be safe for that; both draw all randomness from r so the
// episode sequence is a pure function of the worker's RNG stream.
type EnvSource interface {
	NewEnv(r *rng.RNG) *mdp.Env
	ReinitEnv(r *rng.RNG, env *mdp.Env)
}

// TrainFrom runs the asynchronous workers until the global step counter
// reaches totalSteps (Algorithm 1's outer loop) and returns aggregate
// statistics. Sources that implement in-place episode re-targeting
// (TraceSource) keep worker episode turnover allocation-free, which the
// vectorized engine's alloc gates require.
func (a *A3C) TrainFrom(src EnvSource, totalSteps int64) (TrainStats, error) {
	return a.train(src, totalSteps, a.batchedAccumulator)
}

// accumulator accumulates one rollout's actor and critic gradients into the
// worker's replica networks; boot is the n-step bootstrap value (0 at
// episode end).
type accumulator func(actor, critic *nn.Network, buf *rollout, boot float64)

// batchedAccumulator returns the classic worker's production accumulate
// step: accumulateBatched over worker-owned reused matrices.
func (a *A3C) batchedAccumulator() accumulator {
	var bb batchBuf
	return func(actor, critic *nn.Network, buf *rollout, boot float64) {
		a.accumulateBatched(actor, critic, buf, boot, &bb)
	}
}

// train is TrainFrom with the classic worker's accumulate step supplied by
// newAcc (called once per classic worker); the equivalence tests pass the
// per-sample reference here.
func (a *A3C) train(src EnvSource, totalSteps int64, newAcc func() accumulator) (TrainStats, error) {
	if src == nil {
		return TrainStats{}, errors.New("rl: nil env source")
	}
	if totalSteps <= 0 {
		return TrainStats{}, fmt.Errorf("rl: totalSteps %d", totalSteps)
	}
	trainRate.begin(a)
	defer trainRate.finish(a)
	var wg sync.WaitGroup
	stats := make([]TrainStats, a.cfg.Workers)
	for w := 0; w < a.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if a.cfg.envsPerWorker() > 1 {
				stats[w] = a.vecWorker(w, src, totalSteps)
			} else {
				stats[w] = a.worker(w, src, totalSteps, newAcc())
			}
		}(w)
	}
	wg.Wait()
	var total TrainStats
	for _, s := range stats {
		total.Steps += s.Steps
		total.Episodes += s.Episodes
		total.RewardSum += s.RewardSum
		total.CostSum += s.CostSum
		total.Updates += s.Updates
	}
	return total, nil
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Steps    int64
	Episodes int64
	Updates  int64
	// RewardSum / CostSum accumulate per-step reward and cost; divide by
	// Steps for means.
	RewardSum float64
	CostSum   float64
}

// MeanReward returns the average per-step reward.
func (s TrainStats) MeanReward() float64 {
	if s.Steps == 0 {
		return 0
	}
	return s.RewardSum / float64(s.Steps)
}

// rollout is one worker-local n-step trajectory segment. Feature rows point
// into one flat arena sized NSteps×featureDim up front, so collecting a
// transition allocates nothing.
type rollout struct {
	features [][]float64
	actions  []int
	rewards  []float64
	arena    []float64
}

// newRollout pre-sizes the segment for nsteps transitions of dim features.
func newRollout(nsteps, dim int) *rollout {
	return &rollout{
		features: make([][]float64, 0, nsteps),
		actions:  make([]int, 0, nsteps),
		rewards:  make([]float64, 0, nsteps),
		arena:    make([]float64, nsteps*dim),
	}
}

// reset empties the segment, keeping the arena.
func (b *rollout) reset() {
	b.features = b.features[:0]
	b.actions = b.actions[:0]
	b.rewards = b.rewards[:0]
}

// nextFeatureRow returns the arena row for the next transition; the caller
// fills it and commits the transition by appending it to features.
func (b *rollout) nextFeatureRow(dim int) []float64 {
	n := len(b.features)
	return b.arena[n*dim : (n+1)*dim : (n+1)*dim]
}

// rewardNorm standardizes rewards with running mean/variance estimates so
// returns stay centered and O(1) regardless of the reward function's scale.
// Centering matters as much as scaling: with raw Eq. 4 rewards every action
// earns a large positive return before the critic converges, so every
// sampled action is reinforced and the policy saturates on noise.
type rewardNorm struct {
	mean, vr float64
	seen     bool
}

func (n *rewardNorm) normalize(r float64) float64 {
	if !n.seen {
		n.mean = r
		n.vr = r*r*0.01 + 1e-6
		n.seen = true
	} else {
		d := r - n.mean
		n.mean += 0.001 * d
		n.vr = 0.999*n.vr + 0.001*d*d
	}
	return (r - n.mean) / math.Sqrt(n.vr+1e-12)
}

// worker is one asynchronous actor-learner (Fig. 6's per-thread loop): the
// classic E=1 engine. It differs from vecWorker at E=1 on purpose (DESIGN.md
// §16): it ends a rollout at an episode boundary, draws from the worker RNG
// stream, and accumulates newest-first.
func (a *A3C) worker(id int, src EnvSource, totalSteps int64, accumulate accumulator) TrainStats {
	r := rng.New(a.cfg.Seed).Split(uint64(id) + 0xAC7)
	actor := a.protoActor.Clone()
	critic := a.protoCritic.Clone()
	agent := NewAgent(a.cfg.Net, actor)

	featDim := a.cfg.Net.featureDim()
	env := src.NewEnv(r)
	env.EnableStateReuse()
	state := env.Reset()
	var st TrainStats
	buf := newRollout(a.cfg.NSteps, featDim)
	bootFeats := make([]float64, featDim)
	var norm rewardNorm
	stickyLeft := 0
	var stickyAction pricing.Tier
	// Flat-backed gradient accumulators: after a backward pass these slices
	// already hold the flat gradient vectors, so no per-update copy exists
	// between accumulation and clip/apply.
	aGrad := actor.FlattenGrads()
	cGrad := critic.FlattenGrads()
	var held *paramSnap
	defer func() { releaseSnapshot(held) }()

	for a.steps.Load() < totalSteps {
		// Pull the latest global parameters (Algorithm 1 line 1's "memory"
		// synchronisation): a lock-free zero-copy bind of the published
		// snapshot.
		held = a.bindSnapshot(actor, critic, held)
		actor.ZeroGrad()
		critic.ZeroGrad()

		// Collect up to NSteps transitions (lines 3–5).
		buf.reset()
		done := false
		for len(buf.rewards) < a.cfg.NSteps {
			feats := buf.nextFeatureRow(featDim)
			state.FeaturesInto(feats)
			var action pricing.Tier
			switch {
			case stickyLeft > 0:
				action = stickyAction
				stickyLeft--
			case a.cfg.Epsilon > 0 && r.Float64() < a.cfg.Epsilon:
				action = pricing.Tier(r.Intn(mdp.NumActions))
				stickyAction = action
				if a.cfg.ExploreHold > 1 {
					stickyLeft = a.cfg.ExploreHold - 1
				}
			default:
				action = agent.Sample(&state, 0, r)
			}
			next, reward, cost, fin, err := env.Step(action)
			if err != nil {
				// A finished env slipped through; start a fresh episode.
				src.ReinitEnv(r, env)
				state = env.Reset()
				stickyLeft = 0
				break
			}
			buf.features = append(buf.features, feats)
			buf.actions = append(buf.actions, int(action))
			if a.cfg.NormalizeRewards {
				buf.rewards = append(buf.rewards, norm.normalize(reward))
			} else {
				buf.rewards = append(buf.rewards, reward)
			}
			st.Steps++
			st.RewardSum += reward
			st.CostSum += cost
			a.steps.Add(1)
			state = next
			if fin {
				done = true
				st.Episodes++
				src.ReinitEnv(r, env)
				state = env.Reset()
				stickyLeft = 0
				break
			}
		}
		if len(buf.rewards) == 0 {
			continue
		}
		trainMet.steps.Add(float64(len(buf.rewards)))
		trainMet.batchFill.Observe(float64(len(buf.rewards)) / float64(a.cfg.NSteps))
		if done {
			trainMet.episodes.Inc()
		}

		// n-step return bootstrap (lines 6–8): R = 0 at episode end,
		// V(s_{t+n}) otherwise.
		boot := 0.0
		if !done {
			state.FeaturesInto(bootFeats)
			boot = critic.Forward(bootFeats)[0]
		}
		accumulate(actor, critic, buf, boot)

		// Push accumulated gradients to the global parameters (Eq. 12); the
		// flat-backed accumulators are the gradient vectors.
		a.pushUpdate(aGrad, cGrad, totalSteps)
		st.Updates++
	}
	return st
}

// pushUpdate clips the worker's accumulated flat gradients and applies them
// to the global parameters (Eq. 12) under the apply lock, annealing the
// learning rate by global progress first. Both the scalar and the vectorized
// workers end every update here.
func (a *A3C) pushUpdate(aGrad, cGrad []float64, totalSteps int64) {
	nn.ClipGrads(aGrad, a.cfg.GradClip)
	nn.ClipGrads(cGrad, a.cfg.GradClip)
	if obs.Default().Enabled() {
		// The O(params) norm is only worth computing when someone is
		// watching; Set self-gates but would not skip the sqrt-sum.
		trainMet.gradNorm.Set(math.Sqrt(mat.SumSquares(aGrad)))
	}
	sw := trainMet.updateLat.Start()
	a.mu.Lock()
	if f := a.cfg.FinalLRFraction; f > 0 && f < 1 {
		// Linear LR annealing over this Train call's step budget.
		progress := float64(a.steps.Load()) / float64(totalSteps)
		if progress > 1 {
			progress = 1
		}
		scale := 1 - (1-f)*progress
		a.actorOpt.SetLearningRate(a.cfg.LearningRate * scale)
		a.criticOpt.SetLearningRate(a.cfg.LearningRate * a.cfg.CriticLRMult * scale)
	}
	a.applyLocked(aGrad, cGrad)
	a.mu.Unlock()
	sw.Stop()
	trainMet.updates.Inc()
}
