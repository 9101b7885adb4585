package rl

import (
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// TestBatchedTrainerParallelismBitwise extends the batched/single-sample
// equivalence gate to the intra-update fan-out: a Workers=1 trainer running
// every update's GEMMs across 3 goroutines must still land bitwise on the
// per-sample reference — the parallel kernels shard only independent output
// elements, so Parallelism never perturbs training.
func TestBatchedTrainerParallelismBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.Parallelism = 3
	const steps = 400

	ref := cfg
	ref.Parallelism = 0
	wantA, wantC, wantStats := singleSampleParams(t, ref, 8, 14, steps)
	gotA, gotC, gotStats := trainParams(t, cfg, 8, 14, steps)

	if gotStats != wantStats {
		t.Fatalf("stats diverged: parallel %+v, single-sample %+v", gotStats, wantStats)
	}
	assertVectorsBitwise(t, "actor", gotA, wantA)
	assertVectorsBitwise(t, "critic", gotC, wantC)
}

// TestAccumulateBatchedSteadyStateAllocFree gates the per-update training
// hot path: with warm scratch, one full batched accumulation (feature pack,
// two forwards, scalar gradient loop, two backwards) allocates nothing.
func TestAccumulateBatchedSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actor := a3c.protoActor.Clone()
	critic := a3c.protoCritic.Clone()
	actor.FlattenGrads()
	critic.FlattenGrads()

	dim := cfg.Net.featureDim()
	buf := newRollout(cfg.NSteps, dim)
	r := rng.New(3)
	for i := 0; i < cfg.NSteps; i++ {
		row := buf.nextFeatureRow(dim)
		for j := range row {
			row[j] = r.Float64()
		}
		buf.features = append(buf.features, row)
		buf.actions = append(buf.actions, i%mdp.NumActions)
		buf.rewards = append(buf.rewards, r.Float64()-0.5)
	}
	var bb batchBuf
	a3c.accumulateBatched(actor, critic, buf, 0.25, &bb)
	allocs := testing.AllocsPerRun(10, func() {
		a3c.accumulateBatched(actor, critic, buf, 0.25, &bb)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batched accumulation allocates %.0f/op, want 0", allocs)
	}
}

// TestAgentSampleSteadyStateAllocFree gates the worker-side per-step hot
// path: sampling an action from a live state allocates nothing once the
// agent's scratch is warm.
func TestAgentSampleSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	r := rng.New(5)
	agent := NewAgent(cfg.Net, cfg.Net.BuildActor(r))
	tr := polarTrace(t, 1, 30)
	model := costmodel.New(pricing.Azure())
	env, err := mdp.NewEnv(model, tr.Files[0].SizeGB, tr.Reads[0], tr.Writes[0], pricing.Hot, cfg.Net.HistLen, mdp.DefaultReward())
	if err != nil {
		t.Fatal(err)
	}
	env.EnableStateReuse()
	state := env.Reset()
	agent.Sample(&state, 0, r)
	allocs := testing.AllocsPerRun(10, func() {
		agent.Sample(&state, 0, r)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample allocates %.0f/op, want 0", allocs)
	}
}

// TestDecideTraceSteadyStateAllocFree gates the serving hot path end to end:
// once an agent has served a chunk (environments built, plans sized, network
// scratch warm), re-serving the same-shaped chunk allocates nothing.
func TestDecideTraceSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	r := rng.New(9)
	agent := NewAgent(cfg.Net, cfg.Net.BuildActor(r))
	tr := polarTrace(t, 6, 20)
	model := costmodel.New(pricing.Azure())
	out := make(costmodel.Assignment, tr.NumFiles())
	reward := mdp.DefaultReward()

	serve := func() {
		if err := agent.DecideTrace(model, tr, 0, tr.NumFiles(), pricing.Hot, cfg.Net.HistLen, reward, out, 1); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	allocs := testing.AllocsPerRun(5, serve)
	if allocs != 0 {
		t.Fatalf("steady-state DecideTrace allocates %.0f/op, want 0", allocs)
	}
}

// TestDecideTraceReusedEnvsMatchFresh pins the env-recycling path: a second
// DecideTrace call over a different file range (through recycled
// environments with recycled observations) must produce exactly the plans a
// fresh agent computes.
func TestDecideTraceReusedEnvsMatchFresh(t *testing.T) {
	cfg := smallA3CConfig()
	r := rng.New(11)
	actor := cfg.Net.BuildActor(r)
	tr := polarTrace(t, 8, 15)
	model := costmodel.New(pricing.Azure())
	reward := mdp.DefaultReward()

	reused := NewAgent(cfg.Net, actor)
	warm := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(model, tr, 0, 5, pricing.Hot, cfg.Net.HistLen, reward, warm, 1); err != nil {
		t.Fatal(err)
	}
	got := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(model, tr, 2, 8, pricing.Cool, cfg.Net.HistLen, reward, got, 1); err != nil {
		t.Fatal(err)
	}

	fresh := NewAgent(cfg.Net, actor.Clone())
	want := make(costmodel.Assignment, tr.NumFiles())
	if err := fresh.DecideTrace(model, tr, 2, 8, pricing.Cool, cfg.Net.HistLen, reward, want, 1); err != nil {
		t.Fatal(err)
	}
	for f := 2; f < 8; f++ {
		for d := 0; d < tr.Days; d++ {
			if got[f][d] != want[f][d] {
				t.Fatalf("file %d day %d: reused-env plan %v, fresh plan %v", f, d, got[f][d], want[f][d])
			}
		}
	}
}
