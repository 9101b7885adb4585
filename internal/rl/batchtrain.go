package rl

import (
	"math"
	"sync/atomic"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
)

// This file is the batched training engine: the default A3C update path
// that replaces 2·NSteps single-sample network passes per update with one
// ForwardBatch and one BackwardBatch each for actor and critic, plus the
// lock-free parameter snapshots that let workers pull without convoying on
// the optimizer mutex. The per-sample path it replaces survives as a test
// oracle (accumulateSingle in oracle_test.go); the rl equivalence tests hold
// the two bitwise identical at Workers=1 across the paper's network widths.
//
// Bitwise equivalence rests on two orderings. First, the reference loop
// walks the rollout newest-first (i = n-1 … 0), so the batch matrices are
// built in reverse time order — row j holds timestep n-1-j — and since
// BackwardBatch accumulates parameter gradients in row order, every
// gradient element receives its per-step terms in exactly the reference
// sequence. Second, the return recursion consumes only rewards and the
// bootstrap value, never network outputs, so hoisting it out of the network
// passes into a scalar loop changes no arithmetic.

// paramSnap is one buffer of the double-buffered global parameter store.
// The published buffer (a.snap) is the master copy; it stays immutable
// until retired and recycled, so lock-free readers can copy from it safely. refs counts in-flight snapshot readers; a retired buffer
// is reused for a later apply only once refs drains to zero.
type paramSnap struct {
	actor, critic []float64
	refs          atomic.Int32
}

// nextSnapLocked returns a parameter buffer ready to receive the next
// update: a retired buffer whose readers have drained, or a fresh
// allocation. Steady state recycles, so the retired list stays O(Workers)
// and applies allocate nothing.
func (a *A3C) nextSnapLocked() *paramSnap {
	for i, c := range a.retired {
		if c.refs.Load() == 0 {
			last := len(a.retired) - 1
			a.retired[i] = a.retired[last]
			a.retired = a.retired[:last]
			return c
		}
	}
	cur := a.snap.Load()
	return &paramSnap{
		actor:  make([]float64, len(cur.actor)),
		critic: make([]float64, len(cur.critic)),
	}
}

// applyLocked is the optimizer apply: the update is written straight into
// the next buffer of the double-buffered store (reading the current one) and
// swapped in as published. The superseded buffer stays
// immutable for any readers still copying from it, and — unlike a
// copy-then-publish scheme — no O(params) publish pass exists beyond the
// optimizer's own write. Called with a.mu held.
func (a *A3C) applyLocked(aGrad, cGrad []float64) {
	cur := a.snap.Load()
	next := a.nextSnapLocked()
	a.actorOpt.StepTo(next.actor, cur.actor, aGrad)
	a.criticOpt.StepTo(next.critic, cur.critic, cGrad)
	a.snap.Swap(next)
	a.retired = append(a.retired, cur)
	trainMet.swaps.Inc()
}

// installLocked replaces the published parameters with copies of the given
// vectors (checkpoint restore). Called with a.mu held.
func (a *A3C) installLocked(actor, critic []float64) {
	next := a.nextSnapLocked()
	copy(next.actor, actor)
	copy(next.critic, critic)
	old := a.snap.Swap(next)
	a.retired = append(a.retired, old)
	trainMet.swaps.Inc()
}

// bindSnapshot pins the current published buffer and points the worker's
// replica networks directly at it — an O(layers) pull with no parameter
// copy. Protocol: load the pointer, announce the read by incrementing refs,
// then re-check the pointer — if it moved, this buffer may be mid-recycle,
// so release and retry against the newer one. A successful re-check proves
// the apply's writes into this buffer happened before the swap that made it
// current (atomic release/acquire on a.snap), so the data bound is complete
// even when the buffer is a recycled allocation.
//
// The returned snapshot stays pinned (refs held) until the caller passes it
// back as prev on the next bind or releases it with releaseSnapshot: the
// replica reads parameters from the buffer for the whole rollout and update,
// so it must not be recycled until the worker moves off it. If the published
// pointer still equals prev, the buffer is unchanged — a published buffer is
// immutable on this path and cannot be recycled while prev's ref is held —
// and the bind is a no-op.
func (a *A3C) bindSnapshot(actor, critic *nn.Network, prev *paramSnap) *paramSnap {
	for {
		s := a.snap.Load()
		if s == prev {
			return prev
		}
		s.refs.Add(1)
		if a.snap.Load() == s {
			releaseSnapshot(prev)
			actor.BindParamVector(s.actor)
			critic.BindParamVector(s.critic)
			return s
		}
		s.refs.Add(-1)
	}
}

// releaseSnapshot drops a pin taken by bindSnapshot; nil is a no-op.
func releaseSnapshot(s *paramSnap) {
	if s != nil {
		s.refs.Add(-1)
	}
}

// batchBuf holds one worker's reused matrices for the batched update, grown
// to NSteps once and reused for every rollout thereafter.
type batchBuf struct {
	feats *mat.Matrix // rollout features, reverse time order
	dV    *mat.Matrix // critic output gradients (V - R per row)
	dL    *mat.Matrix // actor logit gradients
	probs []float64   // reused per-row softmax output
}

// accumulateBatched runs the n-step update as batched passes: one critic
// ForwardBatch for all rollout values, one actor ForwardBatch for all
// logits, a scalar loop computing returns, advantages and per-step output
// gradients, then one BackwardBatch each — six network passes per update
// become four, each amortizing its GEMMs over the whole rollout.
//
// The scalar loop reproduces the reference arithmetic term for term
// (advantage clip, entropy bonus, logit decay); see the file comment for
// why the row ordering makes the accumulated gradients bitwise identical.
// The GEMM fan-out follows A3CConfig.Parallelism (default serial: A3C's
// parallelism conventionally comes from the worker fan-out, not from inside
// one update); any setting leaves the gradients bitwise unchanged.
func (a *A3C) accumulateBatched(actor, critic *nn.Network, buf *rollout, ret float64, bb *batchBuf) {
	w := a.cfg.parallelism()
	n := len(buf.rewards)
	bb.feats = mat.EnsureShape(bb.feats, n, len(buf.features[0]))
	for j := 0; j < n; j++ {
		copy(bb.feats.Row(j), buf.features[n-1-j])
	}
	values := critic.ForwardBatch(bb.feats, w)
	logits := actor.ForwardBatch(bb.feats, w)
	bb.dV = mat.EnsureShape(bb.dV, n, 1)
	bb.dL = mat.EnsureShape(bb.dL, n, mdp.NumActions)
	if cap(bb.probs) < mdp.NumActions {
		bb.probs = make([]float64, mdp.NumActions)
	}
	for j := 0; j < n; j++ {
		i := n - 1 - j
		ret = buf.rewards[i] + a.cfg.Gamma*ret

		// Critic: minimize 0.5 (V - R)^2.
		v := values.Row(j)[0]
		bb.dV.Row(j)[0] = v - ret

		// Actor: ascend A·∇log π(a|s) + β ∇H(π). Advantage Eq. 10 uses
		// the critic's value as the baseline V^π(s).
		adv := ret - v
		if a.cfg.AdvClip > 0 {
			adv = math.Max(-a.cfg.AdvClip, math.Min(a.cfg.AdvClip, adv))
		}
		lrow := logits.Row(j)
		p := bb.probs[:len(lrow)]
		nn.SoftmaxInto(p, lrow)
		h := nn.Entropy(p)
		drow := bb.dL.Row(j)
		for k := range drow {
			grad := adv * p[k] // d(-log π(a))·A / dz_k , part 1
			if k == buf.actions[i] {
				grad -= adv
			}
			if p[k] > 0 {
				// Entropy bonus: d(-βH)/dz_k = β π_k (log π_k + H).
				grad += a.cfg.EntropyBeta * p[k] * (math.Log(p[k]) + h)
			}
			// Logit L2 decay (see A3CConfig.LogitDecay).
			grad += a.cfg.LogitDecay * lrow[k]
			drow[k] = grad
		}
	}
	critic.BackwardBatch(bb.dV, w)
	actor.BackwardBatch(bb.dL, w)
}
