package rl

import (
	"bytes"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/rng"
)

// vecTrainParams trains through TrainFrom over a polar-trace TraceSource
// (the allocation-free episode path the vectorized engine is built for).
func vecTrainParams(t *testing.T, cfg A3CConfig, files, days int, steps int64) ([]float64, []float64, TrainStats) {
	t.Helper()
	return trainOn(t, cfg, polarSource(t, cfg, files, days), steps, false)
}

// TestVecTrainerSeedDeterministic pins the vectorized engine's determinism
// contract: at Workers=1 with EnvsPerWorker=4, two fresh runs with the same
// seed must reach bitwise-identical parameters and identical stats. Kept
// fast and never skipped so the CI race job runs it (see ci.yml).
func TestVecTrainerSeedDeterministic(t *testing.T) {
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	const steps = 336 // 12 full 4×7 lockstep rollouts
	a1, c1, s1 := vecTrainParams(t, cfg, 6, 12, steps)
	a2, c2, s2 := vecTrainParams(t, cfg, 6, 12, steps)
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	assertVectorsBitwise(t, "actor", a2, a1)
	assertVectorsBitwise(t, "critic", c2, c1)
}

// TestTrainFromAtE1MatchesSingleSampleBitwise extends the engine-equivalence
// chain to the production entry point: EnvsPerWorker=1 dispatches to the
// classic worker, and a TraceSource's in-place ReinitEnv must be
// observationally identical to building a fresh env per episode, so a
// TrainFrom run at E=1 must stay bitwise-identical to the per-sample
// reference driven through a fresh-env source (envFunc).
func TestTrainFromAtE1MatchesSingleSampleBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 1
	const steps = 400

	ref := cfg
	ref.EnvsPerWorker = 0
	wantA, wantC, wantStats := singleSampleParams(t, ref, 8, 14, steps)
	gotA, gotC, gotStats := vecTrainParams(t, cfg, 8, 14, steps)

	if gotStats != wantStats {
		t.Fatalf("stats diverged: E=1 %+v, single-sample %+v", gotStats, wantStats)
	}
	assertVectorsBitwise(t, "actor", gotA, wantA)
	assertVectorsBitwise(t, "critic", gotC, wantC)
}

// TestVecTrainStatsAccounting pins the vectorized engine's bookkeeping on a
// fully deterministic run: Workers=1, E=4, NSteps=7 over 12-day episodes.
// Every lockstep step advances all four members, so 280 total steps is
// exactly 10 rollouts; every member completes an episode every 12 steps, so
// 280/4 = 70 member-steps yield 5 episodes each.
func TestVecTrainStatsAccounting(t *testing.T) {
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	_, _, stats := vecTrainParams(t, cfg, 6, 12, 280)
	if stats.Steps != 280 {
		t.Fatalf("Steps = %d, want 280", stats.Steps)
	}
	if stats.Updates != 10 {
		t.Fatalf("Updates = %d, want 10", stats.Updates)
	}
	if want := int64(4 * 5); stats.Episodes != want {
		t.Fatalf("Episodes = %d, want %d", stats.Episodes, want)
	}
}

// TestVecCheckpointRoundTripResumesTraining is the vectorized counterpart of
// the batched checkpoint test: a run saved between updates and resumed in a
// fresh trainer must land exactly where the uninterrupted run does. The
// engine re-derives every per-env RNG stream from (Seed, worker, member) at
// each TrainFrom call, so no RNG cursor needs to live in the checkpoint —
// this test is what pins that property. Phase budgets are multiples of
// E×NSteps = 28 so every Train call cuts exactly at an update boundary; SGD
// with annealing disabled makes the comparison exact (the checkpoint omits
// optimizer moments and the global step counter).
func TestVecCheckpointRoundTripResumesTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	cfg.Optimizer = "sgd"
	cfg.FinalLRFraction = 1

	src := polarSource(t, cfg, 8, 14)

	orig, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.TrainFrom(src, 280); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.TrainFrom(src, 560); err != nil {
		t.Fatal(err)
	}

	resumed, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainFrom(src, 280); err != nil {
		t.Fatal(err)
	}

	resumedCur, origCur := resumed.snap.Load(), orig.snap.Load()
	assertVectorsBitwise(t, "actor", resumedCur.actor, origCur.actor)
	assertVectorsBitwise(t, "critic", resumedCur.critic, origCur.critic)
}

// TestAccumulateVecSteadyStateAllocFree gates the vectorized update kernel:
// once its reused matrices are warm, a full E×NSteps accumulate pass (two
// ForwardBatch, the scalar gradient loop, two BackwardBatch) allocates
// nothing.
func TestAccumulateVecSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	cfg.EnvsPerWorker = 4
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actor := a3c.protoActor.Clone()
	critic := a3c.protoCritic.Clone()
	// Flat-backed accumulators as in the worker; without them ZeroGrad walks
	// (and allocates) the per-layer param list every call.
	actor.FlattenGrads()
	critic.FlattenGrads()
	const nEnvs = 4
	rows := nEnvs * cfg.NSteps
	dim := cfg.Net.featureDim()
	feats := mat.New(rows, dim)
	r := rng.New(11)
	for i := range feats.Data {
		feats.Data[i] = r.Float64()
	}
	rewards := make([]float64, rows)
	actions := make([]int, rows)
	dones := make([]bool, rows)
	boot := make([]float64, nEnvs)
	for i := range rewards {
		rewards[i] = r.Float64() - 0.5
		actions[i] = i % mdp.NumActions
	}
	dones[2*nEnvs+1] = true // exercise a mid-rollout episode boundary
	var vb vecBuf
	run := func() {
		actor.ZeroGrad()
		critic.ZeroGrad()
		a3c.accumulateVec(actor, critic, feats, rewards, actions, dones, boot, &vb)
	}
	run() // warm the reused matrices and kernel scratch
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state accumulateVec allocates %.0f/op, want 0", allocs)
	}
}
