package rl

import (
	"bytes"
	"math"
	"testing"

	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

func TestAgentCheckpointRoundTrip(t *testing.T) {
	cfg := NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	agent := NewAgent(cfg, cfg.BuildActor(rng.New(3)))
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same decisions on a probe state.
	s := mdp.State{
		ReadHistory:  []float64{1, 5, 2, 8, 3, 9, 4},
		WriteHistory: make([]float64, 7),
		SizeGB:       0.1,
		Tier:         pricing.Cool,
	}
	p1, p2 := agent.Probabilities(&s), back.Probabilities(&s)
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-12 {
			t.Fatal("checkpoint round trip changed the policy")
		}
	}
}

func TestLoadAgentRejectsGarbage(t *testing.T) {
	if _, err := LoadAgent(bytes.NewBufferString("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestA3CCheckpointRoundTrip(t *testing.T) {
	cfg := smallA3CConfig()
	a1, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	a2, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s := mdp.State{ReadHistory: make([]float64, 7), WriteHistory: make([]float64, 7), SizeGB: 0.1}
	s.ReadHistory[2] = 7
	p1 := a1.Snapshot().Probabilities(&s)
	p2 := a2.Snapshot().Probabilities(&s)
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-12 {
			t.Fatal("trainer checkpoint round trip changed weights")
		}
	}
	// Architecture mismatch rejected.
	other := cfg
	other.Net.Hidden = 8
	a3, err := NewA3C(other)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := a1.SaveCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := a3.LoadCheckpoint(&buf2); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}
