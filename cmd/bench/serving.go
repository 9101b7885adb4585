package main

import (
	"fmt"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/obs"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

// servingResult is one (population, shards, engine) serving measurement.
// Ingest rows report observe throughput; plan rows report latency
// quantiles from an obs histogram and how many files each plan re-decided.
type servingResult struct {
	Config  string `json:"config"`
	HistLen int    `json:"hist_len"`
	Files   int    `json:"files"`
	Shards  int    `json:"shards"`
	Engine  string `json:"engine"` // "ingest", "plan_full" or "plan_incremental"
	Rounds  int    `json:"rounds"`

	Days        int     `json:"days,omitempty"`
	FilesPerSec float64 `json:"observe_files_per_sec,omitempty"`

	P50MS          float64 `json:"plan_p50_ms,omitempty"`
	P99MS          float64 `json:"plan_p99_ms,omitempty"`
	AvgMS          float64 `json:"plan_avg_ms,omitempty"`
	DecidedPerPlan int     `json:"decided_per_plan,omitempty"`
}

// servingNet is the network the serving rows load: the Quick test shape.
// The serving tier's cost drivers — ingest fan-out, feature packing, dirty
// bookkeeping, merge — are network-independent, and the small net keeps the
// 1M-file full-plan rows affordable on one core.
var servingNet = rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}

// benchServing measures the sharded serving state tier directly (no HTTP):
// observe-batch ingestion throughput, then full and incremental plan
// latency, per population and shard count. The incremental rows re-observe
// 1% of the population between plans — the steady-state shape where the
// dirty set is small against the tracked world.
func benchServing(populations []int, rounds int) report {
	rep := newReport("serving")
	const ingestDays = 8 // fills the 7-day window, plus one steady-state sweep
	for pi, files := range populations {
		shardCounts := []int{agentserver.DefaultShards}
		if pi == 0 {
			// Shard sweep on the smallest population: the cross-shard overhead
			// is most visible where per-shard work is cheapest.
			shardCounts = []int{1, 4, agentserver.DefaultShards}
		}
		for _, shards := range shardCounts {
			s, err := agentserver.NewWithConfig(
				rl.NewAgent(servingNet, servingNet.BuildActor(rng.New(7))),
				pricing.Hot, agentserver.Config{Shards: shards})
			if err != nil {
				fatal(err)
			}
			batch := make([]agentserver.FileObservation, files)
			for i := range batch {
				batch[i] = servingObservation(i)
			}

			// Ingest: full-population sweeps, one observe batch per day.
			start := time.Now()
			for d := 0; d < ingestDays; d++ {
				mutateDay(batch, d)
				if _, err := s.Observe(&agentserver.ObserveRequest{Files: batch}); err != nil {
					fatal(err)
				}
			}
			ingest := servingResult{
				Config: "quick16", HistLen: servingNet.HistLen, Files: files,
				Shards: s.Shards(), Engine: "ingest", Rounds: 1, Days: ingestDays,
				FilesPerSec: float64(files*ingestDays) / time.Since(start).Seconds(),
			}
			rep.Serving = append(rep.Serving, ingest)
			fmt.Printf("serving  %8d files  %2d shards  %-16s %12.0f files/s\n",
				files, s.Shards(), "ingest", ingest.FilesPerSec)

			// Full plans: every file re-decided each round.
			full := measureServingPlans(s, true, rounds, func(int) {})
			full.Config, full.HistLen, full.Files, full.Shards = "quick16", servingNet.HistLen, files, s.Shards()
			rep.Serving = append(rep.Serving, full)
			fmt.Printf("serving  %8d files  %2d shards  %-16s p50=%8.1fms p99=%8.1fms (%d decided/plan)\n",
				files, s.Shards(), "plan_full", full.P50MS, full.P99MS, full.DecidedPerPlan)

			// Incremental plans: 1% of the population re-observed per round.
			touch := files / 100
			if touch < 1 {
				touch = 1
			}
			inc := measureServingPlans(s, false, rounds, func(round int) {
				lo := (round * touch) % files
				hi := lo + touch
				if hi > files {
					hi = files
				}
				mutateDay(batch[lo:hi], ingestDays+round)
				if _, err := s.Observe(&agentserver.ObserveRequest{Files: batch[lo:hi]}); err != nil {
					fatal(err)
				}
			})
			inc.Config, inc.HistLen, inc.Files, inc.Shards = "quick16", servingNet.HistLen, files, s.Shards()
			rep.Serving = append(rep.Serving, inc)
			fmt.Printf("serving  %8d files  %2d shards  %-16s p50=%8.1fms p99=%8.1fms (%d decided/plan)\n",
				files, s.Shards(), "plan_incremental", inc.P50MS, inc.P99MS, inc.DecidedPerPlan)
		}
	}
	return rep
}

// measureServingPlans times `rounds` plans through a fresh obs registry and
// folds the latency histogram into a result row. prepare runs before each
// round (the incremental rows use it to dirty a slice of the population);
// one untimed warm-up plan settles post-ingest transitions first.
func measureServingPlans(s *agentserver.Server, fullPlans bool, rounds int, prepare func(round int)) servingResult {
	if _, err := s.BuildPlan(true); err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	timer := reg.Timer("bench_serving_plan_seconds", "Plan latency during the serving bench.")
	decided := 0
	for r := 0; r < rounds; r++ {
		prepare(r)
		sw := timer.Start()
		plan, err := s.BuildPlan(fullPlans)
		sw.Stop()
		if err != nil {
			fatal(err)
		}
		decided += plan.Decided
	}
	h := reg.Snapshot().Histogram("bench_serving_plan_seconds")
	engine := "plan_incremental"
	if fullPlans {
		engine = "plan_full"
	}
	res := servingResult{
		Engine: engine, Rounds: rounds,
		P50MS: h.Quantile(0.5) * 1000, P99MS: h.Quantile(0.99) * 1000,
		DecidedPerPlan: decided / rounds,
	}
	if h.Count > 0 {
		res.AvgMS = h.Sum / float64(h.Count) * 1000
	}
	return res
}

// servingObservation builds file i's baseline measurement with sizes and
// rates spread over the population.
func servingObservation(i int) agentserver.FileObservation {
	r := rng.New(uint64(i)*2654435761 + 97)
	base := r.Float64()
	return agentserver.FileObservation{
		ID:     fmt.Sprintf("f%08d", i),
		SizeGB: 0.01 + base*base*50,
		Reads:  base * 2000,
		Writes: base * 20,
	}
}

// mutateDay drifts a batch's request rates for a new day so every entry
// changes (and therefore dirties) its file.
func mutateDay(batch []agentserver.FileObservation, day int) {
	for i := range batch {
		batch[i].Reads = batch[i].Reads*0.75 + float64(1+(i+day)%7)
		batch[i].Writes = batch[i].Writes*0.75 + float64(1+(i+day)%3)*0.1
	}
}
