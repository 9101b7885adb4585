package agentserver

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

func testAgent() *rl.Agent {
	cfg := rl.NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	return rl.NewAgent(cfg, cfg.BuildActor(rng.New(4)))
}

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

func obsv(id string, reads float64) FileObservation {
	return FileObservation{ID: id, SizeGB: 0.1, Reads: reads, Writes: reads * 0.01}
}

func TestObserveAndPlan(t *testing.T) {
	_, c := newTestServer(t)
	// Feed a week of observations for two files.
	for d := 0; d < 7; d++ {
		resp, err := c.Observe(&ObserveRequest{Files: []FileObservation{
			obsv("busy", 5000),
			obsv("idle", 0.001),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != 2 || resp.Tracked != 2 {
			t.Fatalf("observe resp %+v", resp)
		}
	}
	plan, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Files) != 2 {
		t.Fatalf("plan covers %d files", len(plan.Files))
	}
	// Sorted by id; every tier valid.
	if plan.Files[0].ID != "busy" || plan.Files[1].ID != "idle" {
		t.Fatalf("plan order %+v", plan.Files)
	}
	for _, f := range plan.Files {
		if _, err := pricing.ParseTier(f.Tier); err != nil {
			t.Fatalf("invalid tier %q", f.Tier)
		}
	}
	if plan.Day != 7 {
		t.Fatalf("plan day %d", plan.Day)
	}
	// Second plan: tiers were committed, so unchanged decisions must report
	// Changed=false.
	plan2, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range plan2.Files {
		if f.Tier == plan.Files[i].Tier && f.Changed {
			t.Fatalf("unchanged decision flagged as change: %+v", f)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TrackedFiles != 2 || stats.Observations != 14 || stats.PlansServed != 2 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestPlanBeforeObserveFails(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Plan(); err == nil {
		t.Fatal("plan without observations accepted")
	}
}

func TestObserveValidation(t *testing.T) {
	_, c := newTestServer(t)
	for name, req := range map[string]*ObserveRequest{
		"empty":         {},
		"no-id":         {Files: []FileObservation{{SizeGB: 0.1}}},
		"zero-size":     {Files: []FileObservation{{ID: "x"}}},
		"negative-read": {Files: []FileObservation{{ID: "x", SizeGB: 0.1, Reads: -1}}},
	} {
		if _, err := c.Observe(req); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestObserveRejectsNonFiniteAndNil drives the Go API directly, where no
// JSON decoder stands in front of Observe: a nil batch, NaN and ±Inf in
// every numeric field must be rejected, and a rejected batch must leave the
// store untouched even when a valid entry precedes the bad one.
func TestObserveRejectsNonFiniteAndNil(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := func(f FileObservation) *ObserveRequest {
		f.ID = "bad"
		return &ObserveRequest{Files: []FileObservation{obsv("good", 10), f}}
	}
	for _, c := range []struct {
		name string
		req  *ObserveRequest
	}{
		{"nil", nil},
		{"nan-size", bad(FileObservation{SizeGB: nan})},
		{"nan-reads", bad(FileObservation{SizeGB: 0.1, Reads: nan})},
		{"nan-writes", bad(FileObservation{SizeGB: 0.1, Writes: nan})},
		{"inf-size", bad(FileObservation{SizeGB: inf})},
		{"inf-reads", bad(FileObservation{SizeGB: 0.1, Reads: inf})},
		{"inf-writes", bad(FileObservation{SizeGB: 0.1, Writes: inf})},
		{"neg-inf-size", bad(FileObservation{SizeGB: -inf})},
		{"neg-inf-reads", bad(FileObservation{SizeGB: 0.1, Reads: -inf})},
		{"neg-inf-writes", bad(FileObservation{SizeGB: 0.1, Writes: -inf})},
	} {
		s, err := New(testAgent(), pricing.Hot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Observe(c.req); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if got := s.Stats().TrackedFiles; got != 0 {
			t.Errorf("%s: rejected batch left %d tracked files", c.name, got)
		}
	}
}

func TestHTTPMethodsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	// Wrong methods rejected.
	resp, err = http.Get(ts.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET observe = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST plan = %d", resp.StatusCode)
	}
	// Malformed JSON rejected.
	resp, err = http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d", resp.StatusCode)
	}
}

func TestConcurrentObserveAndPlan(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Observe(&ObserveRequest{Files: []FileObservation{obsv("seed", 1)}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if _, err := c.Observe(&ObserveRequest{Files: []FileObservation{
						obsv("seed", float64(i)),
						obsv("other", 100),
					}}); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Plan(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardWindowRing pins the ring-buffer window semantics: oldest-first
// order once full, left-padding with the first observed value while
// filling, and all-zeros before any observation.
func TestShardWindowRing(t *testing.T) {
	sh := newShard(7)
	slot := sh.addSlot("f")
	sh.setInitialTier(slot, pricing.Hot)
	rs := make([]float64, 7)
	ws := make([]float64, 7)

	sh.windowInto(slot, rs, ws)
	for i := range rs {
		if rs[i] != 0 || ws[i] != 0 {
			t.Fatalf("empty window rs=%v ws=%v", rs, ws)
		}
	}

	// Two observations: window left-pads with the first value.
	sh.ingestOne(slot, 0.1, 5, 50)
	sh.ingestOne(slot, 0.1, 6, 60)
	sh.windowInto(slot, rs, ws)
	wantR := []float64{5, 5, 5, 5, 5, 5, 6}
	wantW := []float64{50, 50, 50, 50, 50, 50, 60}
	for i := range wantR {
		if rs[i] != wantR[i] || ws[i] != wantW[i] {
			t.Fatalf("partial window rs=%v ws=%v", rs, ws)
		}
	}

	// Ten observations through a 7-slot ring: only the trailing 7 survive,
	// oldest first.
	for v := 3.0; v <= 10; v++ {
		sh.ingestOne(slot, 0.1, v, v*10)
	}
	sh.windowInto(slot, rs, ws)
	for i := 0; i < 7; i++ {
		want := float64(4 + i)
		if rs[i] != want || ws[i] != want*10 {
			t.Fatalf("full window rs=%v ws=%v", rs, ws)
		}
	}
}

// TestShardHashStable pins that ShardOf is a pure function of the ID and
// respects the mask.
func TestShardHashStable(t *testing.T) {
	const mask = 15
	for _, id := range []string{"", "a", "file-123", "…unicode…"} {
		a, b := ShardOf(id, mask), ShardOf(id, mask)
		if a != b {
			t.Fatalf("ShardOf(%q) unstable: %d vs %d", id, a, b)
		}
		if a > mask {
			t.Fatalf("ShardOf(%q) = %d exceeds mask %d", id, a, mask)
		}
	}
	if got := ShardOf("anything", 0); got != 0 {
		t.Fatalf("mask 0 must map to shard 0, got %d", got)
	}
}

// TestNewWithConfigShardRounding pins power-of-two rounding and bounds.
func TestNewWithConfigShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Shards(); got != tc.want {
			t.Errorf("Shards:%d rounded to %d, want %d", tc.in, got, tc.want)
		}
	}
	if _, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewWithConfig(testAgent(), pricing.Hot, Config{MaxObserveBytes: -1}); err == nil {
		t.Error("negative body cap accepted")
	}
}

// TestObserveDuplicateLastWins pins the in-batch duplicate contract: the
// later entry's measurement replaces the earlier one's for the day, the
// history window advances once, and the response counts the duplicates.
func TestObserveDuplicateLastWins(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Observe(&ObserveRequest{Files: []FileObservation{
			obsv("dup", 1), obsv("solo", 7), obsv("dup", 2), obsv("dup", 3),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tracked != 2 {
			t.Fatalf("shards=%d tracked %d, want 2", shards, resp.Tracked)
		}
		if resp.Duplicates != 2 {
			t.Fatalf("shards=%d duplicates %d, want 2", shards, resp.Duplicates)
		}
		// One observe day recorded for dup, holding the last value.
		sh := s.shards[ShardOf("dup", s.shardMask)]
		slot := sh.index["dup"]
		if got := sh.fill[slot]; got != 1 {
			t.Fatalf("shards=%d dup fill %d, want 1 (window advanced once)", shards, got)
		}
		rs := make([]float64, s.histLen)
		ws := make([]float64, s.histLen)
		sh.windowInto(slot, rs, ws)
		if rs[s.histLen-1] != 3 {
			t.Fatalf("shards=%d dup last read %v, want 3 (last wins)", shards, rs[s.histLen-1])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, pricing.Hot); err == nil {
		t.Fatal("nil agent accepted")
	}
	if _, err := New(testAgent(), pricing.Tier(9)); err == nil {
		t.Fatal("invalid tier accepted")
	}
}

func BenchmarkPlan1kFiles(b *testing.B) {
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		b.Fatal(err)
	}
	files := make([]FileObservation, 1000)
	for i := range files {
		files[i] = obsv("f"+itoa(i), float64(i))
	}
	for d := 0; d < 7; d++ {
		if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.BuildPlan(true); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
