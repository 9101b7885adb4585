// Command bench measures MiniCost's engines and emits JSON so the perf
// trajectory is tracked from run to run:
//
//   - mode "inference" (BENCH_inference.json): policy.RL serving throughput
//     of the batched GEMM engine at the paper's network configuration and
//     the Quick test configuration.
//   - mode "training" (BENCH_training.json): A3C training steps/sec of the
//     batched training engine at the same configurations (paper: 128
//     filters, NSteps 7).
//   - mode "evaluation" (BENCH_evaluation.json): the Fig. 7 horizon sweep on
//     one core, per-window reference engine versus the single-pass sweep
//     engine, at the experiments Quick and Full configurations (random
//     agent — runtime is weight-independent).
//
// The single-sample engines these replaced survive only as test oracles;
// their speedups are reproducible with the go test -bench pairs
// BenchmarkInferenceSingle/Batched (internal/policy) and
// BenchmarkTrainStepSingle/Batched (internal/rl).
//
// Every mode additionally emits worker-scaling rows: the fast engine rerun
// at each -scale-workers count with GOMAXPROCS pinned to that count, tagged
// with a scaling_efficiency field ((throughput_w / throughput_base) × base/w,
// so perfect linear scaling reads 1.0). Every row also records the effective
// gomaxprocs it ran under, with oversubscribed=true when that width exceeds
// the machine's real cores — on a single-core container a "workers=8" row
// measures goroutine multiplexing, not parallel scaling, and says so.
//
// Every report also carries a machine block — CPU model, nproc, Go version
// and the git commit of the working tree (`git rev-parse HEAD`, "+dirty"
// when tracked files differ) — so rows are compared only across one setup.
//
// Training mode additionally emits an envs-per-worker ladder: the vectorized
// lockstep engine (A3CConfig.EnvsPerWorker) rerun at each -envs width on one
// worker, tagged with a speedup_vs_e1 field — unlike the worker ladder this
// is a single-core batching lever, so its gains are real even when
// oversubscribed would flag the worker rows.
//
// Usage:
//
//	bench                        # inference mode, writes BENCH_inference.json
//	bench -mode training         # writes BENCH_training.json
//	bench -mode evaluation       # writes BENCH_evaluation.json
//	bench -mode all              # all files
//	bench -o results.json        # alternate output path; with -mode all the
//	                             # path is a prefix (results_inference.json …)
//	bench -scale-workers 1,2,4   # alternate scaling ladder ("" disables)
//	bench -envs 1,8,32           # alternate envs-per-worker ladder ("" disables)
//	bench -files 1024 -days 28   # heavier inference workload
//	bench -cpuprofile cpu.pprof  # profile the benchmarked paths
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"minicost/internal/costmodel"
	"minicost/internal/experiments"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/prof"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// result is one (config, engine, workers) measurement.
type result struct {
	Config    string  `json:"config"`
	HistLen   int     `json:"hist_len"`
	Filters   int     `json:"filters"`
	Hidden    int     `json:"hidden"`
	Files     int     `json:"files"`
	Days      int     `json:"days"`
	Engine    string  `json:"engine"` // "batched"
	Workers   int     `json:"workers"`
	Rounds    int     `json:"rounds"`
	NsPerDec  float64 `json:"ns_per_decision"`
	DecPerSec float64 `json:"decisions_per_second"`
	TotalMS   float64 `json:"total_ms"`
	// ScalingEfficiency is set on worker-scaling rows: throughput relative
	// to the ladder's base worker count, normalized so linear scaling is 1.
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	// GoMaxProcs is the effective scheduler width this row ran under (the
	// pinned ladder width, or the ambient process width elsewhere);
	// Oversubscribed flags rows whose width exceeds the machine's real
	// cores, where the row measures multiplexing rather than scaling.
	GoMaxProcs     int  `json:"gomaxprocs"`
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// trainResult is one (config, engine) training measurement.
type trainResult struct {
	Config      string  `json:"config"`
	HistLen     int     `json:"hist_len"`
	Filters     int     `json:"filters"`
	Hidden      int     `json:"hidden"`
	NSteps      int     `json:"n_steps"`
	Workers     int     `json:"workers"`
	Engine      string  `json:"engine"` // "batched" or "vectorized"
	Rounds      int     `json:"rounds"`
	Steps       int64   `json:"steps"`
	StepsPerSec float64 `json:"steps_per_second"`
	TotalMS     float64 `json:"total_ms"`
	// EnvsPerWorker is set on envs-ladder rows: the lockstep width of the
	// vectorized rollout engine; SpeedupVsE1 is the row's throughput over
	// the ladder's E=1 row.
	EnvsPerWorker int     `json:"envs_per_worker,omitempty"`
	SpeedupVsE1   float64 `json:"speedup_vs_e1,omitempty"`
	// ScalingEfficiency is set on worker-scaling rows; see result.
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	// GoMaxProcs / Oversubscribed: see result.
	GoMaxProcs     int  `json:"gomaxprocs"`
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// evalResult is one (config, engine, workers) horizon-sweep measurement.
type evalResult struct {
	Config     string  `json:"config"`
	Files      int     `json:"files"`
	Days       int     `json:"days"`
	Horizons   []int   `json:"horizons"`
	Engine     string  `json:"engine"` // "perwindow" or "swept"
	Workers    int     `json:"workers"`
	Rounds     int     `json:"rounds"`
	TotalMS    float64 `json:"total_ms"`
	SpeedupVs1 float64 `json:"speedup_vs_perwindow,omitempty"`
	// ScalingEfficiency is set on worker-scaling rows; see result.
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	// GoMaxProcs / Oversubscribed: see result.
	GoMaxProcs     int  `json:"gomaxprocs"`
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

type report struct {
	Benchmark  string          `json:"benchmark"`
	GoMaxProc  int             `json:"gomaxprocs"`
	Machine    machine         `json:"machine"`
	Results    []result        `json:"results,omitempty"`
	Training   []trainResult   `json:"training,omitempty"`
	Evaluation []evalResult    `json:"evaluation,omitempty"`
	Serving    []servingResult `json:"serving,omitempty"`
}

// benchConfigs are the shared network shapes: the paper's architecture and
// the Quick test configuration.
var benchConfigs = []struct {
	name string
	net  rl.NetConfig
}{
	{"paper128", rl.NetConfig{HistLen: 14, Filters: 128, Kernel: 4, Stride: 1, Hidden: 128}},
	{"quick16", rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}},
}

func main() {
	var (
		mode       = flag.String("mode", "inference", `"inference", "training", "evaluation", "serving" or "all"`)
		out        = flag.String("o", "", "output JSON path (default BENCH_<mode>.json; a prefix with -mode all)")
		files      = flag.Int("files", 512, "files in the inference bench trace")
		days       = flag.Int("days", 14, "trace days")
		rounds     = flag.Int("rounds", 3, "timed rounds per measurement (best is kept)")
		trainSteps = flag.Int64("train-steps", 1024, "environment steps per training round")
		workers    = flag.Int("workers", 1, "A3C workers in the training bench")
		scaleFlag  = flag.String("scale-workers", "1,2,4,8", "comma-separated worker counts for the scaling rows; empty disables them")
		envsFlag   = flag.String("envs", "1,4,16,64", "comma-separated envs-per-worker ladder for the training bench; empty disables it")
		serveFiles = flag.String("serve-files", "100000,1000000", "comma-separated tracked-file populations for the serving bench")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path")
	)
	flag.Parse()

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	envs, err := parseScale(*envsFlag)
	if err != nil {
		fatal(fmt.Errorf("-envs: %w", err))
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}

	all := *mode == "all"
	runInference := *mode == "inference" || all
	runTraining := *mode == "training" || all
	runEvaluation := *mode == "evaluation" || all
	runServing := *mode == "serving" || all
	if !runInference && !runTraining && !runEvaluation && !runServing {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	if runInference {
		writeReport(outPath(*out, "inference", all), benchInference(*files, *days, *rounds, scale))
	}
	if runTraining {
		writeReport(outPath(*out, "training", all), benchTraining(*trainSteps, *workers, *rounds, scale, envs))
	}
	if runEvaluation {
		writeReport(outPath(*out, "evaluation", all), benchEvaluation(*rounds, scale))
	}
	if runServing {
		populations, err := parseScale(*serveFiles)
		if err != nil {
			fatal(fmt.Errorf("-serve-files: %w", err))
		}
		if len(populations) == 0 {
			fatal(fmt.Errorf("-serve-files: at least one population required"))
		}
		writeReport(outPath(*out, "serving", all), benchServing(populations, *rounds))
	}

	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// outPath resolves the report path for one mode. Without -o it is the
// standard BENCH_<mode>.json. With -o in a single mode it is the given path
// verbatim; under -mode all the path acts as a prefix and "_<mode>" is
// inserted before the extension (results.json → results_inference.json, …)
// so the three reports never overwrite each other.
func outPath(out, mode string, all bool) string {
	if out == "" {
		return "BENCH_" + mode + ".json"
	}
	if !all {
		return out
	}
	ext := filepath.Ext(out)
	if ext == "" {
		ext = ".json"
	}
	return strings.TrimSuffix(out, filepath.Ext(out)) + "_" + mode + ext
}

// parseScale parses the -scale-workers ladder ("1,2,4,8"). An empty flag
// disables scaling rows.
func parseScale(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ladder := make([]int, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-scale-workers: bad worker count %q", p)
		}
		ladder = append(ladder, w)
	}
	return ladder, nil
}

// scaledRun pins GOMAXPROCS to the row's worker count for the duration of
// one measurement, so a scaling row measures real scheduler parallelism
// rather than goroutine multiplexing on the ambient process width.
func scaledRun(workers int, measure func() time.Duration) time.Duration {
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	return measure()
}

// efficiency normalizes a scaling row against the ladder's base row:
// (throughput_w / throughput_base) × base/w, so linear scaling reads 1.0.
func efficiency(throughput, baseThroughput float64, workers, baseWorkers int) float64 {
	if baseThroughput <= 0 {
		return 0
	}
	return (throughput / baseThroughput) * float64(baseWorkers) / float64(workers)
}

// stampProcs returns the honesty pair for one row: the effective scheduler
// width it ran under and whether that width oversubscribes the machine's
// real cores (in which case the row measures goroutine multiplexing, not
// parallel scaling — the single-core CI containers hit this on every ladder
// row past w=1).
func stampProcs(gmp int) (int, bool) { return gmp, gmp > runtime.NumCPU() }

func benchInference(files, days, rounds int, scale []int) report {
	rep := newReport("inference")
	for _, cfg := range benchConfigs {
		agent := rl.NewAgent(cfg.net, cfg.net.BuildActor(rng.New(7)))
		gen := trace.DefaultGenConfig()
		gen.NumFiles = files
		gen.Days = days
		gen.Seed = 7
		tr, err := trace.Generate(gen)
		if err != nil {
			fatal(err)
		}
		m := costmodel.New(pricing.Azure())
		decisions := float64(tr.NumFiles() * tr.Days)
		mkResult := func(engine string, workers, gmp int, best time.Duration) result {
			res := result{
				Config: cfg.name, HistLen: cfg.net.HistLen, Filters: cfg.net.Filters,
				Hidden: cfg.net.Hidden, Files: tr.NumFiles(), Days: tr.Days,
				Engine: engine, Workers: workers, Rounds: rounds,
				NsPerDec:  float64(best.Nanoseconds()) / decisions,
				DecPerSec: decisions / best.Seconds(),
				TotalMS:   float64(best.Microseconds()) / 1000,
			}
			res.GoMaxProcs, res.Oversubscribed = stampProcs(gmp)
			return res
		}

		batched := measure(policy.RL{Agent: agent, Workers: 1}, tr, m, rounds)
		res := mkResult("batched", 1, runtime.GOMAXPROCS(0), batched)
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-9s %-8s %10.0f ns/decision  %12.0f decisions/s\n", cfg.name, "batched", res.NsPerDec, res.DecPerSec)

		// Worker-scaling ladder: the batched engine rerun at each worker
		// count with GOMAXPROCS pinned to match.
		var baseThr float64
		for i, w := range scale {
			best := scaledRun(w, func() time.Duration {
				return measure(policy.RL{Agent: agent, Workers: w}, tr, m, rounds)
			})
			res := mkResult("batched", w, w, best)
			if i == 0 {
				baseThr = res.DecPerSec
			}
			res.ScalingEfficiency = efficiency(res.DecPerSec, baseThr, w, scale[0])
			rep.Results = append(rep.Results, res)
			fmt.Printf("%-9s %-8s %10.0f ns/decision  %12.0f decisions/s  workers=%d eff=%.2f\n",
				cfg.name, "batched", res.NsPerDec, res.DecPerSec, w, res.ScalingEfficiency)
		}
	}
	return rep
}

func benchTraining(steps int64, workers, rounds int, scale, envs []int) report {
	rep := newReport("training")
	for _, cfg := range benchConfigs {
		// The training workload mirrors the rl bench tests: a small polar
		// trace keeps env stepping cheap so network passes dominate.
		gen := trace.DefaultGenConfig()
		gen.NumFiles = 16
		gen.Days = 14
		gen.Seed = 7
		tr, err := trace.Generate(gen)
		if err != nil {
			fatal(err)
		}
		m := costmodel.New(pricing.Azure())
		mkResult := func(engine string, w, gmp int, n int64, best time.Duration) trainResult {
			res := trainResult{
				Config: cfg.name, HistLen: cfg.net.HistLen, Filters: cfg.net.Filters,
				Hidden: cfg.net.Hidden, NSteps: rl.DefaultA3CConfig().NSteps,
				Workers: w, Engine: engine, Rounds: rounds, Steps: n,
				StepsPerSec: float64(n) / best.Seconds(),
				TotalMS:     float64(best.Microseconds()) / 1000,
			}
			res.GoMaxProcs, res.Oversubscribed = stampProcs(gmp)
			return res
		}

		batched := measureTraining(cfg.net, tr, m, steps, workers, 1, rounds)
		res := mkResult("batched", workers, runtime.GOMAXPROCS(0), steps, batched)
		rep.Training = append(rep.Training, res)
		fmt.Printf("%-9s %-10s %12.0f steps/s\n", cfg.name, "batched", res.StepsPerSec)

		// Worker-scaling ladder: the batched trainer rerun with w A3C
		// workers and GOMAXPROCS pinned to match, so the rows measure the
		// asynchronous fan-out end to end (collection and update included).
		var baseThr float64
		for i, w := range scale {
			best := scaledRun(w, func() time.Duration {
				return measureTraining(cfg.net, tr, m, steps, w, 1, rounds)
			})
			res := mkResult("batched", w, w, steps, best)
			if i == 0 {
				baseThr = res.StepsPerSec
			}
			res.ScalingEfficiency = efficiency(res.StepsPerSec, baseThr, w, scale[0])
			rep.Training = append(rep.Training, res)
			fmt.Printf("%-9s %-10s %12.0f steps/s  workers=%d eff=%.2f\n",
				cfg.name, "batched", res.StepsPerSec, w, res.ScalingEfficiency)
		}

		// Envs-per-worker ladder: the vectorized lockstep engine at one
		// worker on the ambient scheduler width — vectorization batches
		// network passes on a single core rather than fanning out
		// goroutines, so these rows are meaningful even where the worker
		// ladder is oversubscribed. Wide rows get their step budget raised
		// so every row still runs a healthy number of updates.
		var e1Thr float64
		for i, e := range envs {
			rollout := int64(e * rl.DefaultA3CConfig().NSteps)
			envSteps := steps
			if min := 16 * rollout; envSteps < min {
				envSteps = min
			}
			engine := "batched" // E ≤ 1 dispatches to the classic loop
			if e > 1 {
				engine = "vectorized"
			}
			best := measureTraining(cfg.net, tr, m, envSteps, 1, e, rounds)
			res := mkResult(engine, 1, runtime.GOMAXPROCS(0), envSteps, best)
			res.EnvsPerWorker = e
			if i == 0 {
				e1Thr = res.StepsPerSec
			} else {
				res.SpeedupVsE1 = res.StepsPerSec / e1Thr
			}
			rep.Training = append(rep.Training, res)
			fmt.Printf("%-9s %-10s %12.0f steps/s  envs=%d", cfg.name, engine, res.StepsPerSec, e)
			if res.SpeedupVsE1 > 0 {
				fmt.Printf("  %.2fx vs E=1", res.SpeedupVsE1)
			}
			fmt.Println()
		}
	}
	return rep
}

// benchEvaluation times the Fig. 7 horizon sweep on one core: the
// per-window reference engine (re-assign + re-price every method at every
// horizon) versus the single-pass sweep engine. A random agent stands in for
// the trained one — equivalence and runtime are weight-independent — so the
// bench measures evaluation, not training.
func benchEvaluation(rounds int, scale []int) report {
	rep := newReport("evaluation")
	for _, lc := range []struct {
		name string
		cfg  experiments.Config
	}{{"quick", experiments.Quick()}, {"full", experiments.Full()}} {
		cfg := lc.cfg
		// One worker everywhere: the speedup must come from the algorithm,
		// not from the sweep engine's cross-method parallelism.
		cfg.Workers = 1
		l, err := experiments.NewLab(cfg)
		if err != nil {
			fatal(err)
		}
		l.SetAgent(rl.NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(7))))

		var horizons []int
		run := func(swept bool) time.Duration {
			if swept {
				l.ResetEvalCache()
			}
			start := time.Now()
			var r *experiments.Fig7Result
			var err error
			if swept {
				r, err = l.Fig7()
			} else {
				r, err = l.Fig7Reference()
			}
			if err != nil {
				fatal(err)
			}
			d := time.Since(start)
			horizons = r.Days
			return d
		}

		var perWindowBest time.Duration
		for _, en := range []struct {
			name  string
			swept bool
		}{{"perwindow", false}, {"swept", true}} {
			run(en.swept) // warm-up
			best := time.Duration(0)
			for i := 0; i < rounds; i++ {
				if d := run(en.swept); best == 0 || d < best {
					best = d
				}
			}
			res := evalResult{
				Config: lc.name, Files: l.Test.NumFiles(), Days: l.Test.Days,
				Horizons: horizons, Engine: en.name, Workers: 1, Rounds: rounds,
				TotalMS: float64(best.Microseconds()) / 1000,
			}
			res.GoMaxProcs, res.Oversubscribed = stampProcs(runtime.GOMAXPROCS(0))
			if en.swept {
				res.SpeedupVs1 = perWindowBest.Seconds() / best.Seconds()
			} else {
				perWindowBest = best
			}
			rep.Evaluation = append(rep.Evaluation, res)
			fmt.Printf("%-9s %-10s %10.1f ms/sweep", lc.name, en.name, res.TotalMS)
			if res.SpeedupVs1 > 0 {
				fmt.Printf("  %.2fx vs perwindow", res.SpeedupVs1)
			}
			fmt.Println()
		}

		// Worker-scaling ladder: the sweep engine rerun with the lab's
		// evaluation parallelism at each worker count, GOMAXPROCS pinned to
		// match. Throughput basis is sweeps/second (inverse wall time).
		var baseThr float64
		for i, w := range scale {
			l.Cfg.Workers = w
			best := scaledRun(w, func() time.Duration {
				run(true) // warm-up at this width
				b := time.Duration(0)
				for r := 0; r < rounds; r++ {
					if d := run(true); b == 0 || d < b {
						b = d
					}
				}
				return b
			})
			res := evalResult{
				Config: lc.name, Files: l.Test.NumFiles(), Days: l.Test.Days,
				Horizons: horizons, Engine: "swept", Workers: w, Rounds: rounds,
				TotalMS: float64(best.Microseconds()) / 1000,
			}
			res.GoMaxProcs, res.Oversubscribed = stampProcs(w)
			thr := 1 / best.Seconds()
			if i == 0 {
				baseThr = thr
			}
			res.ScalingEfficiency = efficiency(thr, baseThr, w, scale[0])
			rep.Evaluation = append(rep.Evaluation, res)
			fmt.Printf("%-9s %-10s %10.1f ms/sweep  workers=%d eff=%.2f\n",
				lc.name, "swept", res.TotalMS, w, res.ScalingEfficiency)
		}
		l.Cfg.Workers = 1
	}
	return rep
}

// measure times p.Assign over the trace `rounds` times (after one warm-up)
// and returns the best round, the standard way to suppress scheduler noise.
func measure(p policy.RL, tr *trace.Trace, m *costmodel.Model, rounds int) time.Duration {
	if _, err := p.Assign(tr, m, pricing.Hot); err != nil {
		fatal(err)
	}
	best := time.Duration(0)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := p.Assign(tr, m, pricing.Hot); err != nil {
			fatal(err)
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// measureTraining times a fresh TrainFrom run of `steps` environment steps
// per round (after a shorter warm-up run) and returns the best round. Each
// round rebuilds the trainer so step counts, annealing and optimizer state
// are identical across rounds and engines; envs > 1 selects the vectorized
// lockstep engine.
func measureTraining(net rl.NetConfig, tr *trace.Trace, m *costmodel.Model, steps int64, workers, envs, rounds int) time.Duration {
	cfg := rl.DefaultA3CConfig()
	cfg.Net = net
	cfg.Workers = workers
	cfg.EnvsPerWorker = envs
	cfg.Seed = 7
	run := func(n int64) time.Duration {
		a3c, err := rl.NewA3C(cfg)
		if err != nil {
			fatal(err)
		}
		src, err := rl.NewTraceSource(m, tr, net.HistLen, mdp.DefaultReward(), pricing.Hot)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		if _, err := a3c.TrainFrom(src, n); err != nil {
			fatal(err)
		}
		return time.Since(start)
	}
	warm := steps / 4
	if floor := int64(cfg.NSteps * max(envs, 1)); warm < floor {
		warm = floor // at least one full lockstep rollout
	}
	run(warm)
	best := time.Duration(0)
	for i := 0; i < rounds; i++ {
		if d := run(steps); best == 0 || d < best {
			best = d
		}
	}
	return best
}

func writeReport(path string, rep report) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
