package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"minicost/internal/aggregate"
	"minicost/internal/costmodel"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.A3C.Net = rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	cfg.A3C.Workers = 2
	cfg.A3C.Seed = 11
	cfg.TrainSteps = 250000
	return cfg
}

func genTrace(t testing.TB, files, days int, seed uint64) *trace.Trace {
	t.Helper()
	gc := trace.DefaultGenConfig()
	gc.NumFiles = files
	gc.Days = days
	gc.Seed = seed
	tr, err := trace.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testConfig()); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.A3C.LearningRate = -1
	if _, err := New(bad); err == nil {
		t.Error("invalid A3C config accepted")
	}
	bad = testConfig()
	bad.InitialTier = pricing.Tier(9)
	if _, err := New(bad); err == nil {
		t.Error("invalid tier accepted")
	}
	bad = testConfig()
	bad.TrainSteps = -1
	if _, err := New(bad); err == nil {
		t.Error("negative train steps accepted")
	}
	bad = testConfig()
	bad.Aggregation = &aggregate.Config{}
	if _, err := New(bad); err == nil {
		t.Error("invalid aggregation config accepted")
	}
	bad = testConfig()
	badPricing := pricing.Azure()
	badPricing.TransitionPerGB = -1
	bad.Pricing = badPricing
	if _, err := New(bad); err == nil {
		t.Error("invalid pricing accepted")
	}
}

func TestRunRequiresTraining(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(genTrace(t, 5, 10, 1)); err != ErrUntrained {
		t.Fatalf("err = %v, want ErrUntrained", err)
	}
	if _, err := s.Assigner(); err != ErrUntrained {
		t.Fatalf("Assigner err = %v, want ErrUntrained", err)
	}
}

func TestTrainAndRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := genTrace(t, 200, 21, 1)
	test := genTrace(t, 150, 21, 2)
	stats, err := s.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps < cfg.TrainSteps {
		t.Fatalf("trained %d of %d steps", stats.Steps, cfg.TrainSteps)
	}
	report, err := s.Run(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Daily) != test.Days || len(report.DecisionTime) != test.Days {
		t.Fatal("report day count wrong")
	}
	if report.Total.Total() <= 0 {
		t.Fatal("zero bill")
	}
	// Run's store-metered bill must equal pricing the same assignment via
	// the cost model (two independent accounting paths).
	assigner, err := s.Assigner()
	if err != nil {
		t.Fatal(err)
	}
	cost, _, err := policy.Evaluate(assigner, test, s.Model(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost.Total()-report.Total.Total()) > 1e-6 {
		t.Fatalf("store bill %v != assigner bill %v", report.Total.Total(), cost.Total())
	}
	// The trained system must beat the all-hot baseline on the test set.
	hot, _, err := policy.Evaluate(policy.Static{Tier: pricing.Hot}, test, s.Model(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if report.Total.Total() >= hot.Total() {
		t.Fatalf("MiniCost %v not better than all-hot %v", report.Total.Total(), hot.Total())
	}
	t.Logf("minicost=%.4f hot=%.4f changes=%d", report.Total.Total(), hot.Total(), report.TierChanges)
}

func TestRunWithAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := testConfig()
	cfg.TrainSteps = 8000
	aggCfg := aggregate.DefaultConfig()
	cfg.Aggregation = &aggCfg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig()
	gc.NumFiles = 80
	gc.Days = 28
	gc.HeadFraction = 0.15
	gc.GroupFraction = 0.5
	gc.Seed = 3
	tr, err := trace.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(tr); err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The same system without aggregation must cost at least as much
	// (the aggregator only acts on positive-Ω groups).
	cfg2 := cfg
	cfg2.Aggregation = nil
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetAgent(s.Agent())
	plain, err := s2.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if report.AggregatedGroups > 0 && report.Total.Total() > plain.Total.Total()*1.001 {
		t.Fatalf("aggregation raised cost: %v -> %v (%d groups)",
			plain.Total.Total(), report.Total.Total(), report.AggregatedGroups)
	}
	t.Logf("plain=%.4f withAgg=%.4f groups=%d", plain.Total.Total(), report.Total.Total(), report.AggregatedGroups)
}

func TestSetAgentSkipsTraining(t *testing.T) {
	cfg := testConfig()
	cfg.TrainSteps = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(genTrace(t, 5, 10, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Agent() == nil {
		t.Fatal("TrainSteps=0 should still install a snapshot agent")
	}
	report, err := s.Run(genTrace(t, 5, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalDecisionTime() <= 0 {
		t.Fatal("decision time not measured")
	}
}

func TestRunReportLedgerConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.TrainSteps = 0
	s, _ := New(cfg)
	tr := genTrace(t, 10, 14, 6)
	if _, err := s.Train(tr); err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum := costmodel.SumBreakdowns(report.Daily)
	if math.Abs(sum.Total()-report.Total.Total()) > 1e-9 {
		t.Fatal("daily ledger does not sum to total")
	}
}

// TestRunPinnedAcrossEngines pins Run's bill, daily ledger and tier changes
// to the values it produced when it decided file by file with the
// single-sample Agent.Decide, at the Quick and paper network widths, with
// aggregation off and on. Random-weight agents keep the pins independent of
// training; DecideBatch is bitwise equal to Decide, so the batched engine
// must reproduce every value exactly. The daily ledger is pinned by an
// FNV-1a hash over the bits of every day's four cost components.
func TestRunPinnedAcrossEngines(t *testing.T) {
	gc := trace.DefaultGenConfig()
	gc.NumFiles = 300
	gc.Days = 28
	gc.HeadFraction = 0.15
	gc.GroupFraction = 0.5
	gc.Seed = 3
	tr, err := trace.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	quick := rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	for _, c := range []struct {
		name    string
		net     rl.NetConfig
		seed    uint64
		agg     bool
		total   costmodel.Breakdown
		daily   uint64
		changes int
	}{
		{"quick16", quick, 21, false, costmodel.Breakdown{Storage: 0.07835348033529077, Read: 1428.9000039754353, Write: 0.3038907106641927, Transition: 0.013719140625}, 0x1a376e235c966e1e, 693},
		{"quick16+agg", quick, 21, true, costmodel.Breakdown{Storage: 0.09922887044698592, Read: 1113.5530697941042, Write: 0.3038907106641927, Transition: 0.013719140625}, 0x518d7fe22d434e56, 693},
		{"paper128", rl.DefaultNetConfig(), 22, false, costmodel.Breakdown{Storage: 0.49692514731849546, Read: 8.27217022780072, Write: 0.16770625247192192, Transition: 0.0043359375}, 0x1211808c6cd7622e, 221},
		{"paper128+agg", rl.DefaultNetConfig(), 22, true, costmodel.Breakdown{Storage: 0.5178005374301905, Read: 8.190139031196077, Write: 0.16770625247192192, Transition: 0.0043359375}, 0xa5755644c231b6f3, 221},
	} {
		cfg := DefaultConfig()
		cfg.A3C.Net = c.net
		if c.agg {
			ac := aggregate.DefaultConfig()
			cfg.Aggregation = &ac
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetAgent(rl.NewAgent(c.net, c.net.BuildActor(rng.New(c.seed))))
		report, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if report.Total != c.total {
			t.Errorf("%s: Total = %#v, want %#v", c.name, report.Total, c.total)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, d := range report.Daily {
			for _, v := range []float64{d.Storage, d.Read, d.Write, d.Transition} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if len(report.Daily) != tr.Days || h.Sum64() != c.daily {
			t.Errorf("%s: %d daily entries hashing to %#x, want %d hashing to %#x", c.name, len(report.Daily), h.Sum64(), tr.Days, c.daily)
		}
		if report.TierChanges != c.changes {
			t.Errorf("%s: TierChanges = %d, want %d", c.name, report.TierChanges, c.changes)
		}
	}
}
