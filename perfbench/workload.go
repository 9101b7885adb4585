package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"minicost/internal/agentserver"
	"minicost/internal/par"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// Network presets, as cmd/bench names them.
var (
	paper128 = rl.NetConfig{HistLen: 14, Filters: 128, Kernel: 4, Stride: 1, Hidden: 128}
	quick16  = rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
)

// workload is one traffic mix: a generated trace and how it is served.
type workload struct {
	name string
	why  string
	net  rl.NetConfig
	// netName labels net in the output.
	netName string
	files   int
	days    int
	// dense posts every file every day. Otherwise the first day posts the
	// whole inventory (the application reports every file it wants tiered)
	// and later days only files with traffic that day, the way pagecount
	// dumps list only viewed pages.
	dense bool
	// integer draws Poisson counts instead of expected values.
	integer bool
	// online runs the continuous learner beside serving.
	online bool
	// driftDay is the first day drawn from the drifted (colder, bulkier)
	// generator config; 0 means no drift.
	driftDay int
	// epochEvery schedules a fine-tune epoch at the start of every
	// epochEvery-th day once HistLen days are buffered (online only).
	epochEvery int
	// batchRows is the observe batch size, chosen so one pass sends at
	// least minObserveRequests requests after the warm-up days.
	batchRows int
	// bootSteps is the bootstrap training budget in environment steps.
	bootSteps int64
}

// minObserveRequests is the observe sample one pass must yield so that an
// exact p99 has ten samples beyond it.
const minObserveRequests = 1000

// workloads are the benchmark's traffic mixes. Each stresses a different
// layer: paper128-dense is inference-bound, sparse-1m is bound by plan
// merge, encode and memory over a million tracked files, online-drift puts
// ingest, the learner tap and fine-tune epochs beside serving. sparse-1m
// runs by hand but is not listed in BENCHMARK.json: on a shared two-vCPU
// host its timing medians spread by up to a quarter between runs, the most
// the benchmark's bounds allow.
var workloads = []workload{
	{
		name:      "paper128-dense",
		why:       "The paper's 128-filter network re-deciding all 6000 files every day, so BuildPlan inference (rl/nn/mat) dominates the cycle and ingest or encode barely register.",
		net:       paper128,
		netName:   "paper128",
		files:     6000,
		days:      28,
		dense:     true,
		batchRows: 150,
		// At 1000 steps the policy serves Hot to every file, which leaves
		// the oracle nothing to tell apart; at 6000 it serves mostly Cool
		// with some Hot and Archive files.
		bootSteps: 6000,
	},
	{
		name:      "sparse-1m",
		why:       "A million tracked files, later days posting only the ~3% with traffic, so plan merge, encode, JSON and memory dominate, inference does not, and the stale-window bill shows.",
		net:       quick16,
		netName:   "quick16",
		files:     1_000_000,
		days:      10,
		integer:   true,
		batchRows: 200,
		bootSteps: 30000,
	},
	{
		name:       "online-drift",
		why:        "20k files posted daily with the learner on and a colder, bulkier second half, so ingest, the learner tap and fine-tune epochs compete with serving for the two cores.",
		net:        quick16,
		netName:    "quick16",
		files:      20000,
		days:       28,
		dense:      true,
		online:     true,
		driftDay:   14,
		epochEvery: 3,
		batchRows:  250,
		bootSteps:  30000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// dataset is a generated trace flattened into pointer-free arrays, so the
// harness's resident copy costs the garbage collector nothing to scan.
type dataset struct {
	n, days int
	// driftDay is the first day of the second regime (== days without
	// drift); sizes differ per regime.
	driftDay int
	size     [2][]float64
	// reads/writes hold file i's day d at i*days+d.
	reads, writes []float64
	dense         bool
	// posted[d] lists, in ascending file index (= ascending ID), the files
	// posted on day d.
	posted [][]int32
}

// fileID names file i; the fixed width makes ID order index order.
func fileID(i int) string { return fmt.Sprintf("f%07d", i) }

// parseFileID inverts fileID; ok is false for a foreign ID.
func parseFileID(id string) (int, bool) {
	if len(id) != 8 || id[0] != 'f' {
		return 0, false
	}
	v, err := strconv.Atoi(id[1:])
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

func (ds *dataset) read(i, d int) float64  { return ds.reads[i*ds.days+d] }
func (ds *dataset) write(i, d int) float64 { return ds.writes[i*ds.days+d] }

// sizeAt is file i's size on day d.
func (ds *dataset) sizeAt(i, d int) float64 {
	if d >= ds.driftDay {
		return ds.size[1][i]
	}
	return ds.size[0][i]
}

// regimes returns the [lo, hi) day ranges of the size regimes, in order,
// so that regime k has sizes size[k].
func (ds *dataset) regimes() [][2]int {
	if ds.driftDay >= ds.days {
		return [][2]int{{0, ds.days}}
	}
	return [][2]int{{0, ds.driftDay}, {ds.driftDay, ds.days}}
}

// isPosted reports whether file i is posted on day d.
func (ds *dataset) isPosted(i, d int) bool {
	return ds.dense || d == 0 || ds.read(i, d) > 0 || ds.write(i, d) > 0
}

// genConfigs returns the generator configs of the workload's two regimes.
// All statistics come from trace.DefaultGenConfig; the drifted regime is
// cold and bulky the way cmd/loadgen -drift shifts it: sizes grow 8× and
// read rates fall 100×.
func genConfigs(w workload, seed uint64) (base, drifted trace.GenConfig) {
	base = trace.DefaultGenConfig()
	base.NumFiles = w.files
	base.Days = w.days
	base.Seed = seed
	base.IntegerCounts = w.integer
	drifted = base
	drifted.Seed = seed ^ 0x5eed_d41f7
	drifted.MeanSizeGB *= 8
	drifted.BaseDailyReads /= 100
	drifted.MinDailyReads /= 100
	drifted.HeadRateLo /= 100
	drifted.HeadRateHi /= 100
	return base, drifted
}

// generate builds the workload's dataset from seed; the same seed gives
// the same dataset. A drifting workload takes its days from driftDay on,
// and its second-regime sizes, from the drifted config.
func generate(w workload, seed uint64) (*dataset, error) {
	base, drifted := genConfigs(w, seed)
	ds := &dataset{
		n:        w.files,
		days:     w.days,
		driftDay: w.days,
		dense:    w.dense,
		reads:    make([]float64, w.files*w.days),
		writes:   make([]float64, w.files*w.days),
	}
	// fill copies days [lo, days) of cfg's trace and returns its sizes.
	fill := func(cfg trace.GenConfig, lo int) ([]float64, error) {
		tr, err := trace.Generate(cfg)
		if err != nil {
			return nil, err
		}
		sizes := make([]float64, w.files)
		for i := range tr.Files {
			sizes[i] = tr.Files[i].SizeGB
			copy(ds.reads[i*w.days+lo:(i+1)*w.days], tr.Reads[i][lo:])
			copy(ds.writes[i*w.days+lo:(i+1)*w.days], tr.Writes[i][lo:])
		}
		return sizes, nil
	}
	var err error
	if ds.size[0], err = fill(base, 0); err != nil {
		return nil, err
	}
	ds.size[1] = ds.size[0]
	if w.driftDay > 0 {
		ds.driftDay = w.driftDay
		if ds.size[1], err = fill(drifted, w.driftDay); err != nil {
			return nil, err
		}
	}
	ds.posted = make([][]int32, w.days)
	par.For(w.days, 0, func(d int) {
		var list []int32
		for i := 0; i < ds.n; i++ {
			if ds.isPosted(i, d) {
				list = append(list, int32(i))
			}
		}
		ds.posted[d] = list
	})
	return ds, nil
}

// batchBodies JSON-encodes each day's posted rows into observe bodies of at
// most rows entries, in ID order. Encoding happens once, before any timed
// region, so request latency covers the round trip only.
func batchBodies(ds *dataset, rows int) ([][][]byte, error) {
	bodies := make([][][]byte, ds.days)
	var err error
	var req agentserver.ObserveRequest
	for d := 0; d < ds.days; d++ {
		posted := ds.posted[d]
		for lo := 0; lo < len(posted); lo += rows {
			hi := min(lo+rows, len(posted))
			req.Files = req.Files[:0]
			for _, i := range posted[lo:hi] {
				req.Files = append(req.Files, agentserver.FileObservation{
					ID:     fileID(int(i)),
					SizeGB: ds.sizeAt(int(i), d),
					Reads:  ds.read(int(i), d),
					Writes: ds.write(int(i), d),
				})
			}
			var b []byte
			if b, err = json.Marshal(&req); err != nil {
				return nil, err
			}
			bodies[d] = append(bodies[d], b)
		}
	}
	return bodies, nil
}

// batchRowCount is the row count of body b of day d.
func batchRowCount(ds *dataset, rows, d, b int) int {
	return min(rows, len(ds.posted[d])-b*rows)
}
