package rl

import (
	"sync/atomic"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// TestA3CSurvivesExhaustedEnvs injects a misbehaving source: every third
// env it hands out (from NewEnv or ReinitEnv) has already been stepped to
// its end. The workers never see the exhaustion — they rewind every env they
// receive before stepping it (Env.Reset in the classic worker at E=1,
// EnvBank.Install and ResetEnv at E=4) — so what this checks is that a
// finished env from the source is rewound into a full episode and the step
// budget completes.
func TestA3CSurvivesExhaustedEnvs(t *testing.T) {
	model := costmodel.New(pricing.Azure())
	reads := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	writes := make([]float64, len(reads))
	for _, envs := range []int{1, 4} {
		cfg := smallA3CConfig()
		cfg.Workers = 2
		cfg.EnvsPerWorker = envs
		a3c, err := NewA3C(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The source is called concurrently by the async workers, so the
		// counters must be atomic.
		var calls, exhausted atomic.Int64
		src := envFunc(func(r *rng.RNG) *mdp.Env {
			env, err := mdp.NewEnv(model, 0.1, reads, writes, pricing.Hot, 7, mdp.DefaultReward())
			if err != nil {
				t.Error(err)
				return nil
			}
			if calls.Add(1)%3 == 0 {
				// Exhaust the episode before handing it over.
				for d := 0; d < len(reads); d++ {
					if _, _, _, _, err := env.Step(pricing.Hot); err != nil {
						t.Error(err)
					}
				}
				exhausted.Add(1)
			}
			return env
		})
		stats, err := a3c.TrainFrom(src, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if exhausted.Load() == 0 {
			t.Fatalf("E=%d: source never handed out a finished env", envs)
		}
		if stats.Steps < 2000 {
			t.Fatalf("E=%d: training stalled at %d steps", envs, stats.Steps)
		}
	}
}

// TestEvaluateAgentPropagatesEnvErrors verifies the serving path surfaces
// trace corruption instead of mispricing silently.
func TestEvaluateAgentPropagatesEnvErrors(t *testing.T) {
	tr := polarTrace(t, 4, 10)
	tr.Files[2].SizeGB = 0 // invalid size -> mdp.NewEnv must fail
	netCfg := NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	agent := NewAgent(netCfg, netCfg.BuildActor(rng.New(1)))
	if _, _, err := EvaluateAgent(agent, costmodel.New(pricing.Azure()), tr, 7, pricing.Hot); err == nil {
		t.Fatal("corrupted trace accepted")
	}
}
