package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"minicost/internal/agentserver"
	"minicost/internal/core"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

func TestQuantileExact(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2}, // nearest rank: ceil(0.5·4) = 2nd
		{[]float64{4, 1, 3, 2}, 0.75, 3},
		{[]float64{5}, 0.99, 5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 90},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.91, 100},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0, 10},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 1, 100},
		{nil, 0.5, 0},
	} {
		if got := quantile(append([]float64(nil), tc.xs...), tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	// p99 of 1..1000 is the 990th value: 0.99·1000 must not round up to 991.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

// smallWorkload shrinks a workload to test size, keeping its shape.
func smallWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.files, w.days, w.batchRows = 400, 10, 64
	if w.driftDay > 0 {
		w.driftDay = 5
	}
	w.net = rl.NetConfig{HistLen: 4, Filters: 4, Kernel: 2, Stride: 1, Hidden: 8}
	return w
}

func TestGenerateSeedDeterministic(t *testing.T) {
	for _, name := range []string{"paper128-dense", "sparse-1m", "online-drift"} {
		w := smallWorkload(t, name)
		a, err := generate(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different datasets", name)
		}
		ba, err := batchBodies(a, w.batchRows)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := batchBodies(b, w.batchRows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ba, bb) {
			t.Fatalf("%s: same seed gave different request bodies", name)
		}
		c, err := generate(w, 12)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.reads, c.reads) {
			t.Fatalf("%s: seeds 11 and 12 gave the same reads", name)
		}
	}
}

// replayInProcess drives a real agentserver with the dataset's batches,
// without HTTP, and checks every plan; alter, when non-nil, may change a
// plan before the checker sees it.
func replayInProcess(t *testing.T, w workload, alter func(d int, p *agentserver.PlanResponse, chk *checker)) *checker {
	t.Helper()
	ds, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := batchBodies(ds, w.batchRows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig().A3C
	cfg.Net = w.net
	trainer, err := rl.NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agent := trainer.Snapshot()
	srv, err := agentserver.NewWithConfig(agent, pricing.Hot, agentserver.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(ds, agent, false)
	for d := 0; d < ds.days; d++ {
		for _, body := range bodies[d] {
			var req agentserver.ObserveRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Observe(&req); err != nil {
				t.Fatal(err)
			}
		}
		p, err := srv.BuildPlan(false)
		if err != nil {
			t.Fatal(err)
		}
		if alter != nil {
			alter(d, p, chk)
		}
		chk.plan(d, p, false)
	}
	return chk
}

func TestCheckerAcceptsServedPlans(t *testing.T) {
	for _, name := range []string{"paper128-dense", "sparse-1m"} {
		chk := replayInProcess(t, smallWorkload(t, name), nil)
		if chk.failures != 0 {
			t.Fatalf("%s: served plans failed the checks: %v", name, chk.errs)
		}
		if chk.oracleRows == 0 {
			t.Fatalf("%s: the oracle rebuilt no rows", name)
		}
	}
}

func TestOracleCatchesFlippedTier(t *testing.T) {
	w := smallWorkload(t, "paper128-dense")
	flipped := ""
	chk := replayInProcess(t, w, func(d int, p *agentserver.PlanResponse, chk *checker) {
		if d != w.days-1 {
			return
		}
		// Flip one sampled file's tier on the last plan and keep the plan
		// self-consistent (changed flag, transition count), so only the
		// oracle can tell.
		for k := range p.Files {
			e := &p.Files[k]
			i, _ := parseFileID(e.ID)
			if !chk.sample[i] {
				continue
			}
			cur, _ := pricing.ParseTier(e.Tier)
			next := pricing.Tier((int(cur) + 1) % pricing.NumTiers)
			e.Tier = next.String()
			was := e.Changed
			e.Changed = uint8(next) != chk.prev[i]
			if was && !e.Changed {
				p.Transition--
			} else if !was && e.Changed {
				p.Transition++
			}
			flipped = e.ID
			return
		}
	})
	if flipped == "" {
		t.Fatal("no sampled file to flip")
	}
	if chk.failures == 0 {
		t.Fatalf("flipping %s went unnoticed", flipped)
	}
	for _, e := range chk.errs {
		if !strings.Contains(e, "oracle") || !strings.Contains(e, flipped) {
			t.Errorf("failure not from the oracle on %s: %s", flipped, e)
		}
	}
}

func TestFinishFailsSingleTierOracle(t *testing.T) {
	one := &checker{oracleRows: 5}
	one.oracleTiers[pricing.Cool] = 5
	one.finish()
	if one.failures != 1 {
		t.Fatalf("an oracle that saw one tier passed: %v", one.errs)
	}
	two := &checker{oracleRows: 5}
	two.oracleTiers[pricing.Hot], two.oracleTiers[pricing.Archive] = 4, 1
	two.finish()
	if two.failures != 0 {
		t.Fatalf("an oracle that saw two tiers failed: %v", two.errs)
	}
}
