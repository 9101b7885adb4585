// Command perfbench is MiniCost's daily-cycle benchmark. It replays a
// paper-calibrated trace through minicostd's serving stack over loopback
// HTTP, one day at a time, the way the paper's web application drives the
// agent (§4.2): the day's per-file observations are posted, then one plan
// closes the day and the next day waits for it.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper128-dense --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays untraced, then as long again traced, and reports per-layer
// metrics from the traced passes, with the tracing overhead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Any failed correctness check makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"time"

	"minicost/internal/obs"
)

// A run sets the stack up at least minSetups times and until minSetupTime
// has passed (at most maxSetups times); setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 9
	minSetupTime = 4 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints metric lines and collects the result's metric map.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) metric(name string, value float64, unit string, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(r.out, "metric %-44s %14.6g %-6s %s\n", name, value, unit, note)
}

// extra prints a figure that is reported but not part of the result line.
func (r *report) extra(name string, value float64, unit string, note string) {
	fmt.Fprintf(r.out, "extra  %-44s %14.6g %-6s %s\n", name, value, unit, note)
}

func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured replay time per run")
	traced := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <s≥1> --trace <0|1>:", err)
		return 2
	}
	// minicostd turns the default-off metrics registry on before it
	// bootstraps (its -metrics flag defaults to true); so does the
	// benchmark, so every instrument in the served stack records.
	obs.Default().SetEnabled(true)
	rep := &report{out: out, metrics: map[string]metric{}}
	st := machineStamp()
	rep.info("perfbench daily cycle: workload=%s seed=%d seconds=%d trace=%d", w.name, *seed, *seconds, *traced)
	rep.info("stamp cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d", st.CPU, st.NProc, st.GOMAXPROCS, st.Go, st.Commit, *seed)
	rep.info("workload %s: %s network, %d files x %d days, dense=%v integer=%v online=%v drift_day=%d batch_rows=%d",
		w.name, w.netName, w.files, w.days, w.dense, w.integer, w.online, w.driftDay, w.batchRows)
	rep.info("why: %s", w.why)
	rep.info("load: closed loop, %d clients on %d connections post each day's batches (day 0 from one client), then one GET /v1/plan closes the day", clients, clients)
	rep.info("obs registry enabled, as minicostd -metrics (the default) runs it")

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets up, generates the workload, replays it and reports.
func measure(w workload, seed uint64, dur time.Duration, traced bool, rep *report) (*result, error) {
	var setups, trainRates []float64
	var b *boot
	for began := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(began) < minSetupTime); {
		t0 := time.Now()
		var err error
		if b, err = bootstrap(w); err != nil {
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
		st, err := newStack(w, b, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		trainRates = append(trainRates, float64(b.trainSteps)/b.trainSeconds)
	}

	ds, err := generate(w, seed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	bodies, err := batchBodies(ds, w.batchRows)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	requests, measured, posted := 0, 0, 0
	for d := range bodies {
		requests += len(bodies[d])
		posted += len(ds.posted[d])
		if d >= warmupDays {
			measured += len(bodies[d])
		}
	}
	if measured < minObserveRequests {
		return nil, fmt.Errorf("a pass measures %d observe requests, want at least %d for an exact p99", measured, minObserveRequests)
	}
	rep.info("dataset: %d observation rows in %d observe requests per pass, %d after the %d warm-up days (%.2f%% of file-days posted)",
		posted, requests, measured, warmupDays, 100*float64(posted)/float64(ds.n*ds.days))

	rp := newReplayer(w, ds, bodies, b)
	res := &result{Metrics: rep.metrics}
	if traced {
		err = measureTraced(rp, dur, rep, trainRates, seed, res)
	} else {
		err = measureEndToEnd(rp, dur, rep, setups, res)
	}
	if err != nil {
		return nil, err
	}
	rep.info("checks: %d plans checked, %d oracle rows rebuilt bitwise, %d failures", rp.checks.plans, rp.checks.oracleRows, rp.checks.failures)
	for _, e := range rp.checks.errs {
		rep.info("check failed: %s", e)
	}
	res.Correct = rp.checks.failures == 0 && res.Failed == 0
	return res, nil
}

// passes replays whole passes until the deadline has passed, at least
// one. With bill set the first pass records the bill.
func (rp *replayer) passes(ph *phase, rec *recorder, deadline time.Time, bill bool) error {
	first := true
	for first || time.Now().Before(deadline) {
		if err := rp.pass(ph, rec, first && bill); err != nil {
			return err
		}
		first = false
	}
	return nil
}

func measureEndToEnd(rp *replayer, dur time.Duration, rep *report, setups []float64, res *result) error {
	ph := &phase{}
	hp := startHeapPeak()
	err := rp.passes(ph, nil, time.Now().Add(dur), true)
	peak := hp.stop()
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = ph.requests, ph.failed
	rep.info("replay: %d passes, %d day cycles, %d requests, %d failed", ph.passes, len(ph.cycles), ph.requests, ph.failed)
	if ph.firstErr != nil {
		rep.info("first failed request: %v", ph.firstErr)
	}
	n := func(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }
	rep.metric("setup_s", median(setups), "s", fmt.Sprintf("n=%d bootstrap+server+learner construction, wall time", len(setups)))
	// The gated timings are process CPU time (client and server share the
	// process): on a shared host, wall time also counts the waits for a CPU
	// that other tenants hold, and swings by tens of percent between runs
	// of the same code. The wall-clock figures are printed, not gated.
	rep.metric("cycle_cpu_s", median(ph.cycleCPU), "s", n(ph.cycleCPU)+" first observe POST to plan response, epoch included")
	cpu := sum(ph.cycleCPU)
	rep.metric("cpu_us_per_file_day", 1e6*cpu/float64(ph.rows), "us", fmt.Sprintf("rows=%d over %.3f CPU s of cycles", ph.rows, cpu))
	rep.metric("observe_cpu_ms", median(ph.observeCPU), "ms", n(ph.observeCPU)+" days without an epoch, per POST /v1/observe")
	rep.metric("plan_cpu_ms", median(ph.planCPU), "ms", n(ph.planCPU)+" per GET /v1/plan: build, encode, transfer, client decode")
	rep.extra("cycle_p50_s", median(ph.cycles), "s", n(ph.cycles)+" wall")
	cycles := sum(ph.cycles)
	rep.extra("file_days_per_s", float64(ph.rows)/cycles, "1/s", fmt.Sprintf("rows=%d over %.3fs of cycles, wall", ph.rows, cycles))
	rep.extra("observe_p50_ms", median(ph.observe), "ms", n(ph.observe)+" wall")
	rep.extra("observe_p90_ms", quantile(ph.observe, 0.9), "ms", n(ph.observe)+" wall")
	rep.extra("observe_p99_ms", quantile(ph.observe, 0.99), "ms", n(ph.observe)+" wall")
	rep.extra("plan_p50_ms", median(ph.plan), "ms", n(ph.plan)+" wall")
	// The bill is exact for a seed, but heavy-tailed across seeds: one
	// read-heavy file the policy archives for a day can cost more than the
	// whole optimal bill, so its spread between seeds is too wide to gate.
	b := rp.bill
	rep.extra("bill_vs_optimal", b.served/b.optimal, "ratio",
		fmt.Sprintf("served=$%.4f optimal=$%.4f all_hot=$%.4f (all_hot/optimal=%.4f)", b.served, b.optimal, b.allHot, b.allHot/b.optimal))
	rep.metric("peak_heap_mb", float64(peak)/(1<<20), "MB", "peak live heap after a GC; includes the harness's resident trace and request bodies, constant across commits")
	errRate := 0.0
	if ph.requests > 0 {
		errRate = float64(ph.failed) / float64(ph.requests)
	}
	rep.extra("error_rate", errRate, "ratio", fmt.Sprintf("%d failed of %d requests, carried as failed/attempted in the result line", ph.failed, ph.requests))
	if len(ph.epochs) > 0 {
		rep.extra("epoch_p50_s", median(ph.epochs), "s", fmt.Sprintf("n=%d, reported per layer as online.epoch_p50_s", len(ph.epochs)))
	}
	return nil
}

// heapPeak samples the live Go heap (as marked by the latest GC) until
// stopped; unlike the heap including garbage, its peak does not depend on
// when collections happen to run.
type heapPeak struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapPeak() *heapPeak {
	hp := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hp.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > hp.peak {
				hp.peak = v
			}
			select {
			case <-hp.quit:
				return
			case <-t.C:
			}
		}
	}()
	return hp
}

// stop ends sampling and returns the peak in bytes.
func (hp *heapPeak) stop() uint64 {
	close(hp.quit)
	<-hp.done
	return hp.peak
}
