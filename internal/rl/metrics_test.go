package rl

import (
	"math"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/obs"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// TestTrainingMetricsAdvance runs a short Train with the default registry
// enabled and asserts the training instruments move: steps, updates,
// snapshot swaps, update latency, batch fill, and the derived steps/sec
// gauge. Deltas, not absolutes — the registry is process-global.
func TestTrainingMetricsAdvance(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })

	before := reg.Snapshot()
	a3c, err := NewA3C(smallA3CConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := envFunc(func(r *rng.RNG) *mdp.Env {
		e, _ := mdp.NewEnv(costmodel.New(pricing.Azure()), 0.1,
			[]float64{1, 2, 3, 4, 5, 6, 7, 8}, make([]float64, 8), pricing.Hot, 7, mdp.DefaultReward())
		return e
	})
	const steps = 200
	if _, err := a3c.TrainFrom(src, steps); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()

	delta := func(id string) float64 { return after.Counter(id) - before.Counter(id) }
	if got := delta("minicost_train_steps_total"); got < steps {
		t.Errorf("steps delta = %v, want ≥ %d", got, steps)
	}
	if delta("minicost_train_updates_total") <= 0 {
		t.Error("updates counter did not advance")
	}
	if delta("minicost_train_snapshot_swaps_total") <= 0 {
		t.Error("snapshot swap counter did not advance")
	}
	if delta("minicost_train_episodes_total") <= 0 {
		t.Error("episode counter did not advance")
	}
	lat := after.Histogram("minicost_train_update_seconds")
	if lat.Count <= before.Histogram("minicost_train_update_seconds").Count {
		t.Error("update latency histogram did not advance")
	}
	fill := after.Histogram("minicost_train_batch_fill")
	if fill.Count <= before.Histogram("minicost_train_batch_fill").Count {
		t.Error("batch fill histogram did not advance")
	}
	if rate := after.Gauge("minicost_train_steps_per_second"); math.IsNaN(rate) || rate <= 0 {
		t.Errorf("steps/sec gauge = %v, want finite positive", rate)
	}
	// The grad-norm gauge saw at least one post-clip update.
	if norm := after.Gauge("minicost_train_grad_norm"); math.IsNaN(norm) || norm < 0 {
		t.Errorf("grad norm gauge = %v", norm)
	}
}

// TestVecTrainingMetricsAdvance is the vectorized-engine counterpart: the
// lockstep envs gauge returns to its pre-run level once all workers exit
// (Add/defer-Add pairing), and the batched-forward timer advanced.
func TestVecTrainingMetricsAdvance(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })

	before := reg.Snapshot()
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := envFunc(func(r *rng.RNG) *mdp.Env {
		e, _ := mdp.NewEnv(costmodel.New(pricing.Azure()), 0.1,
			[]float64{1, 2, 3, 4, 5, 6, 7, 8}, make([]float64, 8), pricing.Hot, 7, mdp.DefaultReward())
		return e
	})
	const steps = 112 // 4 full 4×7 rollouts
	if _, err := a3c.TrainFrom(src, steps); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()

	if got := after.Counter("minicost_train_steps_total") - before.Counter("minicost_train_steps_total"); got < steps {
		t.Errorf("steps delta = %v, want ≥ %d", got, steps)
	}
	if got, want := after.Gauge("minicost_train_envs"), before.Gauge("minicost_train_envs"); got != want {
		t.Errorf("envs gauge = %v after the run, want back at %v", got, want)
	}
	fwd := after.Histogram("minicost_train_vec_forward_seconds")
	if fwd.Count <= before.Histogram("minicost_train_vec_forward_seconds").Count {
		t.Error("vectorized forward timer did not advance")
	}
}
