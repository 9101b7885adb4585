package mdp

import (
	"math"
	"testing"
	"testing/quick"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
)

func env(t *testing.T, reads, writes []float64) *Env {
	t.Helper()
	e, err := NewEnv(costmodel.New(pricing.Azure()), 0.1, reads, writes, pricing.Hot, 4, DefaultReward())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRewardMonotoneDecreasingInCost(t *testing.T) {
	rc := DefaultReward()
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw)/100 + rc.CostFloor
		b := float64(bRaw)/100 + rc.CostFloor
		ra, rb := rc.Reward(a), rc.Reward(b)
		if a < b {
			return ra >= rb
		}
		return rb >= ra
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRewardFiniteAtZeroCost(t *testing.T) {
	rc := DefaultReward()
	r := rc.Reward(0)
	if math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("reward at zero cost = %v", r)
	}
	if r != rc.Alpha/rc.CostFloor+rc.Delta {
		t.Fatalf("floor not applied: %v", r)
	}
}

func TestRewardMatchesEq4(t *testing.T) {
	rc := RewardConfig{Alpha: 2, Delta: 0.5, CostFloor: 1e-9}
	if got := rc.Reward(4); math.Abs(got-(2.0/4+0.5)) > 1e-12 {
		t.Fatalf("Reward(4) = %v", got)
	}
}

func TestEnvEpisode(t *testing.T) {
	reads := []float64{100, 200, 300}
	writes := []float64{1, 2, 3}
	e := env(t, reads, writes)
	s := e.Reset()
	if s.Tier != pricing.Hot || len(s.ReadHistory) != 4 {
		t.Fatalf("initial state %+v", s)
	}
	// Cold-start padding repeats the first observation.
	for _, v := range s.ReadHistory {
		if v != 100 {
			t.Fatalf("padding %v", s.ReadHistory)
		}
	}
	m := costmodel.New(pricing.Azure())
	next, reward, cost, done, err := e.Step(pricing.Cool)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := m.Day(pricing.Hot, pricing.Cool, 0.1, 100, 1).Total()
	if math.Abs(cost-wantCost) > 1e-12 {
		t.Fatalf("cost %v want %v", cost, wantCost)
	}
	// AutoAlpha scales α by the day-0 cost in the initial (hot) tier.
	base := m.Day(pricing.Hot, pricing.Hot, 0.1, 100, 1).Total()
	rc := DefaultReward()
	rc.Alpha *= base
	if math.Abs(reward-rc.Reward(wantCost)) > 1e-12 {
		t.Fatalf("reward %v, want %v", reward, rc.Reward(wantCost))
	}
	if done {
		t.Fatal("done too early")
	}
	if next.Tier != pricing.Cool {
		t.Fatal("tier not updated")
	}
	// History window now ends with day 0's observation.
	if next.ReadHistory[3] != 100 {
		t.Fatalf("history %v", next.ReadHistory)
	}
	_, _, _, done, _ = e.Step(pricing.Cool)
	if done {
		t.Fatal("done after 2 of 3 days")
	}
	_, _, _, done, err = e.Step(pricing.Hot)
	if err != nil || !done {
		t.Fatalf("episode should end: done=%v err=%v", done, err)
	}
	if _, _, _, _, err := e.Step(pricing.Hot); err == nil {
		t.Fatal("step after end accepted")
	}
	// Reset rewinds fully.
	s = e.Reset()
	if e.Day() != 0 || s.Tier != pricing.Hot {
		t.Fatal("reset incomplete")
	}
}

func TestEnvRejectsInvalidAction(t *testing.T) {
	e := env(t, []float64{1, 2}, []float64{0, 0})
	if _, _, _, _, err := e.Step(pricing.Tier(5)); err == nil {
		t.Fatal("invalid action accepted")
	}
}

func TestEnvCostsSumToPlanCost(t *testing.T) {
	// Stepping an env through a plan must reproduce costmodel.PlanCost.
	reads := []float64{50, 500, 5, 800, 2}
	writes := []float64{1, 0, 2, 1, 0}
	e := env(t, reads, writes)
	plan := costmodel.Plan{pricing.Hot, pricing.Cool, pricing.Cool, pricing.Hot, pricing.Archive}
	total := 0.0
	e.Reset()
	for _, a := range plan {
		_, _, cost, _, err := e.Step(a)
		if err != nil {
			t.Fatal(err)
		}
		total += cost
	}
	m := costmodel.New(pricing.Azure())
	want, err := m.PlanCost(pricing.Hot, plan, 0.1, reads, writes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-want.Total()) > 1e-12 {
		t.Fatalf("env total %v != plan cost %v", total, want.Total())
	}
}

func TestNewEnvValidation(t *testing.T) {
	m := costmodel.New(pricing.Azure())
	rc := DefaultReward()
	if _, err := NewEnv(m, 0.1, nil, nil, pricing.Hot, 4, rc); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := NewEnv(m, 0.1, []float64{1}, []float64{1, 2}, pricing.Hot, 4, rc); err == nil {
		t.Error("mismatched series accepted")
	}
	if _, err := NewEnv(m, 0, []float64{1}, []float64{1}, pricing.Hot, 4, rc); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewEnv(m, 0.1, []float64{1}, []float64{1}, pricing.Hot, 0, rc); err == nil {
		t.Error("zero histLen accepted")
	}
	if _, err := NewEnv(m, 0.1, []float64{1}, []float64{1}, pricing.Tier(9), 4, rc); err == nil {
		t.Error("invalid tier accepted")
	}
}

func TestFeatures(t *testing.T) {
	s := State{
		ReadHistory:  []float64{10, 20, 30, 40},
		WriteHistory: []float64{1, 1, 1, 1},
		SizeGB:       0.5,
		Tier:         pricing.Cool,
	}
	f := s.Features()
	if len(f) != FeatureDim(4) || FeatureDim(4) != 2*4+3+pricing.NumTiers {
		t.Fatalf("feature dim %d", len(f))
	}
	// Interleaved channels: shape (normalised by the mean, 25) and log scale.
	if math.Abs(f[0]-10.0/25) > 1e-12 || math.Abs(f[6]-40.0/25) > 1e-12 {
		t.Fatalf("shape features %v", f[:8])
	}
	if math.Abs(f[1]-math.Log1p(10)/10) > 1e-12 || math.Abs(f[7]-math.Log1p(40)/10) > 1e-12 {
		t.Fatalf("scale features %v", f[:8])
	}
	if math.Abs(f[8]-math.Log1p(25)/10) > 1e-12 {
		t.Fatalf("log-mean feature %v", f[8])
	}
	if math.Abs(f[9]-1.0/25) > 1e-12 {
		t.Fatalf("write ratio %v", f[9])
	}
	if f[10] != 0.5 {
		t.Fatalf("size feature %v", f[10])
	}
	// Tier one-hot: position 2h+3+tier.
	if f[11] != 0 || f[12] != 1 || f[13] != 0 {
		t.Fatalf("tier one-hot %v", f[11:])
	}
}

func TestFeaturesScaleInvarianceOfShape(t *testing.T) {
	// Two files with the same demand *shape* but 100x different volume must
	// share the history-shape features and differ in the log-mean feature.
	a := State{ReadHistory: []float64{1, 2, 3, 4}, WriteHistory: []float64{0, 0, 0, 0}, SizeGB: 0.1, Tier: pricing.Hot}
	b := State{ReadHistory: []float64{100, 200, 300, 400}, WriteHistory: []float64{0, 0, 0, 0}, SizeGB: 0.1, Tier: pricing.Hot}
	fa, fb := a.Features(), b.Features()
	for i := 0; i < 4; i++ {
		if math.Abs(fa[2*i]-fb[2*i]) > 1e-12 {
			t.Fatal("shape features not scale invariant")
		}
		if fa[2*i+1] >= fb[2*i+1] {
			t.Fatal("per-day scale channel should grow with volume")
		}
	}
	if fa[8] >= fb[8] {
		t.Fatal("log-mean should grow with volume")
	}
}

func TestFeaturesZeroHistory(t *testing.T) {
	s := State{ReadHistory: []float64{0, 0}, WriteHistory: []float64{0, 0}, SizeGB: 0.1, Tier: pricing.Hot}
	for _, v := range s.Features() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("zero history produced NaN/Inf features")
		}
	}
}

func BenchmarkEnvStep(b *testing.B) {
	reads := make([]float64, 1<<20)
	writes := make([]float64, 1<<20)
	for i := range reads {
		reads[i] = 100
	}
	e, err := NewEnv(costmodel.New(pricing.Azure()), 0.1, reads, writes, pricing.Hot, 14, DefaultReward())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Day() >= e.Days() {
			e.Reset()
		}
		if _, _, _, _, err := e.Step(pricing.Tier(i % 3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatures(b *testing.B) {
	s := State{
		ReadHistory:  make([]float64, 14),
		WriteHistory: make([]float64, 14),
		SizeGB:       0.1,
		Tier:         pricing.Cool,
	}
	for i := range s.ReadHistory {
		s.ReadHistory[i] = float64(i * 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Features()
	}
}

// seriesEnv builds a deterministic multi-day request series for the
// state-reuse tests.
func seriesEnv(t *testing.T, days int) *Env {
	t.Helper()
	reads := make([]float64, days)
	writes := make([]float64, days)
	for d := range reads {
		reads[d] = float64(100 + 37*d)
		writes[d] = float64(3 + d%5)
	}
	return env(t, reads, writes)
}

// TestEnvStateReuseMatchesFresh walks two identical episodes — one with
// recycled observations, one allocating — through an identical policy and
// requires bitwise-identical states, rewards, and costs every step.
func TestEnvStateReuseMatchesFresh(t *testing.T) {
	const days = 12
	fresh := seriesEnv(t, days)
	reused := seriesEnv(t, days)
	reused.EnableStateReuse()

	sf, sr := fresh.Reset(), reused.Reset()
	for d := 0; d < days; d++ {
		for i := range sf.ReadHistory {
			if sr.ReadHistory[i] != sf.ReadHistory[i] || sr.WriteHistory[i] != sf.WriteHistory[i] {
				t.Fatalf("day %d: reused history diverges at %d", d, i)
			}
		}
		if sr.Tier != sf.Tier || sr.SizeGB != sf.SizeGB {
			t.Fatalf("day %d: reused static state diverges", d)
		}
		action := pricing.Tier(d % NumActions)
		var rf, rr, cf, cr float64
		var err error
		sf, rf, cf, _, err = fresh.Step(action)
		if err != nil {
			t.Fatal(err)
		}
		sr, rr, cr, _, err = reused.Step(action)
		if err != nil {
			t.Fatal(err)
		}
		if rr != rf || cr != cf {
			t.Fatalf("day %d: reward/cost diverge: %v/%v vs %v/%v", d, rr, cr, rf, cf)
		}
	}
}

// TestEnvStateReuseDoubleBuffer pins the documented lifetime: the State
// returned before a Step stays intact through that Step (the env alternates
// two buffers), so decide-then-step loops can read the old state after
// receiving the new one.
func TestEnvStateReuseDoubleBuffer(t *testing.T) {
	e := seriesEnv(t, 8)
	e.EnableStateReuse()
	prev := e.Reset()
	before := append([]float64(nil), prev.ReadHistory...)
	next, _, _, _, err := e.Step(pricing.Cool)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if prev.ReadHistory[i] != before[i] {
			t.Fatalf("previous state clobbered at %d after one Step", i)
		}
	}
	if &next.ReadHistory[0] == &prev.ReadHistory[0] {
		t.Fatal("consecutive states share a buffer")
	}
}

// TestEnvStateReuseStepAllocFree gates the per-step allocation budget: with
// recycled observations, Reinit + a full episode of Steps allocates nothing
// once the buffers are warm.
func TestEnvStateReuseStepAllocFree(t *testing.T) {
	e := seriesEnv(t, 10)
	e.EnableStateReuse()
	model, reads, writes := e.Model, e.Reads, e.Writes
	run := func() {
		if err := e.Reinit(model, 0.1, reads, writes, pricing.Hot, 4, DefaultReward()); err != nil {
			t.Fatal(err)
		}
		s := e.Reset()
		for {
			next, _, _, done, err := e.Step(s.Tier)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			s = next
		}
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	if allocs != 0 {
		t.Fatalf("reused-state episode allocates %.0f/op, want 0", allocs)
	}
}
