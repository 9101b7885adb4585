package rl

import (
	"math"

	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/rng"
)

// This file holds the training engine's test oracles: the per-sample
// accumulate step the batched engine is pinned against bitwise, and an
// EnvSource that builds a fresh environment for every episode, which the
// in-place TraceSource.ReinitEnv is pinned against.

// accumulateSingle replays the rollout through the per-sample reference
// path — one critic and one actor Forward/Backward per transition, newest
// first. It is the executable specification accumulateBatched must match
// bitwise; ret arrives as the bootstrap value (0 at episode end).
func (a *A3C) accumulateSingle(actor, critic *nn.Network, buf *rollout, ret float64, dLogits []float64) {
	for i := len(buf.rewards) - 1; i >= 0; i-- {
		ret = buf.rewards[i] + a.cfg.Gamma*ret

		// Critic: minimize 0.5 (V - R)^2.
		v := critic.Forward(buf.features[i])[0]
		critic.Backward([]float64{v - ret})

		// Actor: ascend A·∇log π(a|s) + β ∇H(π). Advantage Eq. 10 uses
		// the critic's value as the baseline V^π(s).
		adv := ret - v
		if a.cfg.AdvClip > 0 {
			adv = math.Max(-a.cfg.AdvClip, math.Min(a.cfg.AdvClip, adv))
		}
		logits := actor.Forward(buf.features[i])
		p := nn.Softmax(logits)
		h := nn.Entropy(p)
		for k := range dLogits {
			grad := adv * p[k] // d(-log π(a))·A / dz_k , part 1
			if k == buf.actions[i] {
				grad -= adv
			}
			if p[k] > 0 {
				// Entropy bonus: d(-βH)/dz_k = β π_k (log π_k + H).
				grad += a.cfg.EntropyBeta * p[k] * (math.Log(p[k]) + h)
			}
			// Logit L2 decay (see A3CConfig.LogitDecay).
			grad += a.cfg.LogitDecay * logits[k]
			dLogits[k] = grad
		}
		actor.Backward(dLogits)
	}
}

// singleAccumulator is batchedAccumulator's reference twin: accumulateSingle
// over a worker-owned logit-gradient buffer.
func (a *A3C) singleAccumulator() accumulator {
	dLogits := make([]float64, mdp.NumActions)
	return func(actor, critic *nn.Network, buf *rollout, boot float64) {
		a.accumulateSingle(actor, critic, buf, boot, dLogits)
	}
}

// trainSingleSample is TrainFrom on the per-sample reference accumulate
// step. Pulls and applies go through the same snapshot store as TrainFrom;
// TestStepToMatchesStepBitwise pins that store's StepTo against in-place
// Step.
func (a *A3C) trainSingleSample(src EnvSource, totalSteps int64) (TrainStats, error) {
	return a.train(src, totalSteps, a.singleAccumulator)
}

// envFunc is an EnvSource over an environment constructor. ReinitEnv builds
// a fresh environment and copies it over the old one, so every episode runs
// on a freshly constructed env — the reference the in-place
// TraceSource.ReinitEnv must be observationally identical to. The
// constructor is called concurrently by the workers.
type envFunc func(r *rng.RNG) *mdp.Env

func (f envFunc) NewEnv(r *rng.RNG) *mdp.Env { return f(r) }

func (f envFunc) ReinitEnv(r *rng.RNG, env *mdp.Env) {
	fresh := f(r)
	// The old env may be running on recycled observation buffers; the copy
	// must carry that mode (and fresh buffers) over, not silently drop it.
	fresh.EnableStateReuse()
	*env = *fresh
}
