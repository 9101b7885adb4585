package rl

import (
	"bytes"
	"fmt"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// polarSource returns a TraceSource over a files×days polar trace.
func polarSource(t testing.TB, cfg A3CConfig, files, days int) *TraceSource {
	t.Helper()
	src, err := NewTraceSource(costmodel.New(pricing.Azure()), polarTrace(t, files, days), cfg.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// trainOn runs a fresh trainer with cfg over src and returns copies of the
// final actor/critic parameter vectors plus stats. singleSample selects the
// per-sample reference accumulate step instead of the production one.
func trainOn(t *testing.T, cfg A3CConfig, src EnvSource, steps int64, singleSample bool) ([]float64, []float64, TrainStats) {
	t.Helper()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := a3c.TrainFrom
	if singleSample {
		train = a3c.trainSingleSample
	}
	stats, err := train(src, steps)
	if err != nil {
		t.Fatal(err)
	}
	cur := a3c.snap.Load()
	return append([]float64(nil), cur.actor...),
		append([]float64(nil), cur.critic...), stats
}

// trainParams trains with the production engine over a polar trace, building
// a fresh env for every episode.
func trainParams(t *testing.T, cfg A3CConfig, files, days int, steps int64) ([]float64, []float64, TrainStats) {
	t.Helper()
	return trainOn(t, cfg, envFunc(polarSource(t, cfg, files, days).NewEnv), steps, false)
}

// singleSampleParams is trainParams on the per-sample reference accumulate
// step.
func singleSampleParams(t *testing.T, cfg A3CConfig, files, days int, steps int64) ([]float64, []float64, TrainStats) {
	t.Helper()
	return trainOn(t, cfg, envFunc(polarSource(t, cfg, files, days).NewEnv), steps, true)
}

func assertVectorsBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: elem %d = %v, want %v (not bitwise equal)", name, i, got[i], want[i])
		}
	}
}

// TestBatchedTrainerMatchesSingleSampleBitwise is the training-engine
// equivalence gate: at Workers=1 with a fixed seed, the batched update path
// must leave bitwise-identical actor and critic parameters to the per-sample
// reference after a sustained run (> 50 updates). The wide-net sweep across
// the paper's widths is TestBatchedTrainingEquivalentAcrossPaperWidths.
func TestBatchedTrainerMatchesSingleSampleBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	const steps = 400 // 57 updates at NSteps 7

	wantA, wantC, wantStats := singleSampleParams(t, cfg, 8, 14, steps)
	gotA, gotC, gotStats := trainParams(t, cfg, 8, 14, steps)

	if wantStats.Updates < 50 {
		t.Fatalf("only %d updates; test needs a sustained run", wantStats.Updates)
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverged: batched %+v, single-sample %+v", gotStats, wantStats)
	}
	assertVectorsBitwise(t, "actor", gotA, wantA)
	assertVectorsBitwise(t, "critic", gotC, wantC)
}

// TestTrainDeterministicAtOneWorker pins the seed contract: two fresh
// trainers with the same configuration reach bitwise-identical parameters.
func TestTrainDeterministicAtOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	a1, c1, s1 := trainParams(t, cfg, 6, 12, 300)
	a2, c2, s2 := trainParams(t, cfg, 6, 12, 300)
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	assertVectorsBitwise(t, "actor", a2, a1)
	assertVectorsBitwise(t, "critic", c2, c1)
}

// TestCheckpointRoundTripResumesBatchedTraining checks SaveCheckpoint /
// LoadCheckpoint through the batched trainer: a run saved mid-training and
// resumed in a fresh process must land exactly where the original run does.
// SGD with annealing disabled makes the comparison exact (the checkpoint
// deliberately omits optimizer moments and the global step counter, the two
// pieces of state RMSProp/annealing would additionally need).
func TestCheckpointRoundTripResumesBatchedTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.Optimizer = "sgd"
	cfg.FinalLRFraction = 1

	src := polarSource(t, cfg, 8, 14)

	orig, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.TrainFrom(src, 300); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Continue the original for another 300 steps (TrainFrom resumes from
	// the global step counter).
	if _, err := orig.TrainFrom(src, 600); err != nil {
		t.Fatal(err)
	}

	resumed, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainFrom(src, 300); err != nil {
		t.Fatal(err)
	}

	resumedCur, origCur := resumed.snap.Load(), orig.snap.Load()
	assertVectorsBitwise(t, "actor", resumedCur.actor, origCur.actor)
	assertVectorsBitwise(t, "critic", resumedCur.critic, origCur.critic)
}

// TestLoadCheckpointRepublishesSnapshot guards the batched path's pull
// source directly: after a load, a snapshot pull must see the restored
// weights, not the ones published at construction.
func TestLoadCheckpointRepublishesSnapshot(t *testing.T) {
	cfg := smallA3CConfig()
	src, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcCur := src.snap.Load()
	for i := range srcCur.actor {
		srcCur.actor[i] = float64(i%13) * 0.01
	}
	for i := range srcCur.critic {
		srcCur.critic[i] = -float64(i%7) * 0.02
	}
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	actor := dst.protoActor.Clone()
	critic := dst.protoCritic.Clone()
	held := dst.bindSnapshot(actor, critic, nil)
	assertVectorsBitwise(t, "actor", actor.ParamVector(), srcCur.actor)
	assertVectorsBitwise(t, "critic", critic.ParamVector(), srcCur.critic)
	releaseSnapshot(held)
}

// paperWidths is Fig. 11's filter/hidden sweep (experiments.PaperWidths).
var paperWidths = []int{4, 16, 32, 64, 128}

// TestBatchedTrainingEquivalentAcrossPaperWidths is the training-engine
// acceptance gate: at Workers=1 with a fixed seed, the production engine
// (batched forward/backward, snapshot pulls, in-place episode turnover) must
// leave bitwise-identical actor and critic parameters to the per-sample
// reference on fresh envs after more than 50 updates, at every network width
// the paper sweeps (Fig. 11).
func TestBatchedTrainingEquivalentAcrossPaperWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full width sweep is slow; TestBatchedTrainerMatchesSingleSampleBitwise covers one width")
	}
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 20
	gen.Days = 12
	gen.Seed = 43
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	const steps = 400 // 57 updates at NSteps 7
	for wi, width := range paperWidths {
		cfg := DefaultA3CConfig()
		cfg.Net = NetConfig{HistLen: 7, Filters: width, Kernel: 4, Stride: 1, Hidden: width}
		cfg.Workers = 1
		cfg.Seed = uint64(3000 + wi)
		src, err := NewTraceSource(m, tr, cfg.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantC, wantStats := trainOn(t, cfg, envFunc(src.NewEnv), steps, true)
		gotA, gotC, gotStats := trainOn(t, cfg, src, steps, false)
		if wantStats.Updates < 50 {
			t.Fatalf("width %d: only %d updates; the gate needs a sustained run", width, wantStats.Updates)
		}
		if gotStats != wantStats {
			t.Fatalf("width %d: stats diverged: batched %+v, single-sample %+v", width, gotStats, wantStats)
		}
		assertVectorsBitwise(t, fmt.Sprintf("width %d actor", width), gotA, wantA)
		assertVectorsBitwise(t, fmt.Sprintf("width %d critic", width), gotC, wantC)
	}
}

// benchmarkTrainStep times b.N environment steps of one-worker training at
// the paper's network configuration and at the Quick one, over the training
// bench's 16-file, 14-day trace; singleSample selects the per-sample oracle.
// The Single/Batched pair reproduces the training engine's speedup:
//
//	go test -run '^$' -bench=TrainStep ./internal/rl
func benchmarkTrainStep(b *testing.B, singleSample bool) {
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 16
	gen.Days = 14
	gen.Seed = 7
	tr, err := trace.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		net  NetConfig
	}{
		{"paper128", DefaultNetConfig()},
		{"quick16", NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultA3CConfig()
			cfg.Net = c.net
			cfg.Workers = 1
			cfg.Seed = 7
			a3c, err := NewA3C(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src, err := NewTraceSource(costmodel.New(pricing.Azure()), tr, cfg.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
			if err != nil {
				b.Fatal(err)
			}
			train := a3c.TrainFrom
			if singleSample {
				train = a3c.trainSingleSample
			}
			b.ResetTimer()
			if _, err := train(src, int64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTrainStepSingle measures the per-sample oracle: one critic and
// one actor Forward/Backward per transition.
func BenchmarkTrainStepSingle(b *testing.B) { benchmarkTrainStep(b, true) }

// BenchmarkTrainStepBatched measures the production engine: one
// ForwardBatch/BackwardBatch pair per network per update.
func BenchmarkTrainStepBatched(b *testing.B) { benchmarkTrainStep(b, false) }
