package main

import (
	"fmt"
	"hash/fnv"

	"minicost/internal/agentserver"
	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// oracleEvery samples the oracle files: those whose ID hash is 0 mod
// oracleEvery.
const oracleEvery = 8

// oracleChunk is the most rows the oracle decides in one batch.
const oracleChunk = 4096

// maxErrors bounds the failure messages an errList keeps for the report.
const maxErrors = 20

// errList counts failed checks and keeps the first maxErrors messages.
type errList struct {
	failures int
	errs     []string
}

func (l *errList) fail(format string, args ...any) {
	l.failures++
	if len(l.errs) < maxErrors {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// merge adds o's failures and as many of its messages as fit.
func (l *errList) merge(o *errList) {
	l.failures += o.failures
	l.errs = append(l.errs, o.errs[:min(len(o.errs), maxErrors-len(l.errs))]...)
}

// checker validates every plan of one pass against what the harness sent:
// plan structure, transition and decision counts, and a sampled oracle that
// rebuilds tiers from the harness's own copy of each file's state.
type checker struct {
	ds      *dataset
	histLen int
	// agent is the policy the server booted with. The oracle runs while it
	// is still the serving policy, i.e. until the first hot swap.
	agent  *rl.Agent
	sample []bool

	seen    []bool
	tracked int
	// prev is the tier the last plan served per file (Hot before any).
	prev, cur []uint8
	// changedPrev lists the files the last plan changed; changedMark flags
	// them.
	changedPrev []int32
	changedMark []bool

	// served records, when non-nil, the tier of file i on day d at
	// i*days+d: Hot on day 0 and for untracked files, else the tier of the
	// plan fetched after day d-1.
	served []uint8

	oracleRows int
	// oracleTiers counts the oracle's rebuilt tiers by tier.
	oracleTiers [pricing.NumTiers]int
	plans       int
	errList

	// rec, when set, receives an rl.decide span per plan timed on decider.
	rec     *recorder
	decider *rl.Agent
	shards  int

	rs, ws []float64
	feats  *mat.Matrix
	tiers  []pricing.Tier
	rows   []int32
}

func newChecker(ds *dataset, agent *rl.Agent, recordBill bool) *checker {
	h := agent.Net.HistLen
	c := &checker{
		ds:          ds,
		histLen:     h,
		agent:       agent.Clone(),
		sample:      make([]bool, ds.n),
		seen:        make([]bool, ds.n),
		prev:        make([]uint8, ds.n),
		cur:         make([]uint8, ds.n),
		changedMark: make([]bool, ds.n),
		rs:          make([]float64, h),
		ws:          make([]float64, h),
	}
	for i := range c.sample {
		c.sample[i] = inOracleSample(fileID(i))
	}
	if recordBill {
		c.served = make([]uint8, ds.n*ds.days)
	}
	return c
}

// inOracleSample picks the oracle's files by a hash of the ID, so the
// sample is fixed across runs, seeds and populations.
func inOracleSample(id string) bool {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()%oracleEvery == 0
}

// expectDecided is how many files the plan after day d must re-decide:
// every tracked file after a policy swap, else the files posted that day
// plus those the previous plan moved (a moved file's tier feature changed).
func (c *checker) expectDecided(d int, swapped bool) int {
	if swapped {
		return c.tracked
	}
	n := len(c.ds.posted[d])
	for _, i := range c.changedPrev {
		if !c.ds.isPosted(int(i), d) {
			n++
		}
	}
	return n
}

// plan checks the plan fetched after day d. swapped reports a hot swap
// since the previous plan.
func (c *checker) plan(d int, p *agentserver.PlanResponse, swapped bool) {
	c.plans++
	for _, i := range c.ds.posted[d] {
		if !c.seen[i] {
			c.seen[i] = true
			c.tracked++
		}
	}
	if len(p.Files) != c.tracked {
		c.fail("day %d: plan lists %d files, %d tracked", d, len(p.Files), c.tracked)
	}
	copy(c.cur, c.prev)
	var changed []int32
	last := -1
	for k := range p.Files {
		e := &p.Files[k]
		i, ok := parseFileID(e.ID)
		switch {
		case !ok || i >= c.ds.n || !c.seen[i]:
			c.fail("day %d: plan lists untracked file %q", d, e.ID)
			continue
		case i <= last:
			c.fail("day %d: plan entry %q out of ID order or repeated", d, e.ID)
			continue
		}
		last = i
		t, err := pricing.ParseTier(e.Tier)
		if err != nil {
			c.fail("day %d: file %s has invalid tier %q", d, e.ID, e.Tier)
			continue
		}
		c.cur[i] = uint8(t)
		if e.Changed != (c.cur[i] != c.prev[i]) {
			c.fail("day %d: file %s changed=%v but tier %s after %s", d, e.ID, e.Changed, t, pricing.Tier(c.prev[i]))
		}
		if e.Changed {
			changed = append(changed, int32(i))
		}
		if c.served != nil && d+1 < c.ds.days {
			c.served[i*c.ds.days+d+1] = uint8(t)
		}
	}
	if p.Transition != len(changed) {
		c.fail("day %d: transitions=%d but %d entries changed", d, p.Transition, len(changed))
	}
	if want := c.expectDecided(d, swapped); p.Decided != want {
		c.fail("day %d: decided=%d, want %d", d, p.Decided, want)
	}
	if c.rec != nil {
		c.timeDecide(d, swapped)
	}
	if swapped {
		c.agent = nil // the boot agent no longer serves
	}
	if c.agent != nil {
		c.oracle(d)
	}
	for _, i := range c.changedPrev {
		c.changedMark[i] = false
	}
	for _, i := range changed {
		c.changedMark[i] = true
	}
	c.changedPrev = changed
	c.prev, c.cur = c.cur, c.prev
}

// oracle rebuilds the tiers of the sampled files from the harness's copy of
// their state and requires the served tier to match bitwise. Files the plan
// re-decides get the boot agent's decision on their rebuilt features;
// the rest must keep their previous tier.
func (c *checker) oracle(d int) {
	c.rows = c.rows[:0]
	for i := 0; i < c.ds.n; i++ {
		if !c.sample[i] || !c.seen[i] {
			continue
		}
		if c.ds.isPosted(i, d) || c.changedMark[i] {
			c.rows = append(c.rows, int32(i))
		} else if c.cur[i] != c.prev[i] {
			c.fail("day %d: oracle: file %s was not re-decided but moved %s -> %s",
				d, fileID(i), pricing.Tier(c.prev[i]), pricing.Tier(c.cur[i]))
		}
	}
	// Chunks bound the harness's memory on the million-file workload.
	for lo := 0; lo < len(c.rows); lo += oracleChunk {
		rows := c.rows[lo:min(lo+oracleChunk, len(c.rows))]
		c.features(d, rows)
		c.agent.DecideBatch(c.feats, c.tiers, par.DefaultWorkers())
		for k, i := range rows {
			c.oracleTiers[c.tiers[k]]++
			if uint8(c.tiers[k]) != c.cur[i] {
				c.fail("day %d: oracle: file %s served %s, rebuilt %s",
					d, fileID(int(i)), pricing.Tier(c.cur[i]), c.tiers[k])
			}
		}
	}
	c.oracleRows += len(c.rows)
}

// finish ends the pass. An oracle that rebuilt every sampled row to the
// same tier could not have told a served tier from any other, so such a
// pass fails.
func (c *checker) finish() {
	tiers := 0
	for _, n := range c.oracleTiers {
		if n > 0 {
			tiers++
		}
	}
	if c.oracleRows > 0 && tiers < 2 {
		c.fail("oracle: all %d rebuilt rows chose one tier, so the bitwise check cannot fail", c.oracleRows)
	}
}

// features packs the rows' states after day d into c.feats (and sizes
// c.tiers): the last histLen values the harness sent, left-padded with the
// first, the latest size sent, and the tier the server last served.
func (c *checker) features(d int, rows []int32) {
	c.feats = mat.EnsureShape(c.feats, len(rows), mdp.FeatureDim(c.histLen))
	if cap(c.tiers) < len(rows) {
		c.tiers = make([]pricing.Tier, len(rows))
	}
	c.tiers = c.tiers[:len(rows)]
	for k, i := range rows {
		size := c.window(int(i), d)
		st := mdp.State{ReadHistory: c.rs, WriteHistory: c.ws, SizeGB: size, Tier: pricing.Tier(c.prev[i])}
		st.FeaturesInto(c.feats.Row(k))
	}
}

// window fills c.rs/c.ws with file i's sent history up to day d and returns
// the latest size sent.
func (c *checker) window(i, d int) float64 {
	h := c.histLen
	n := 0
	size := 0.0
	for k := d; k >= 0 && n < h; k-- {
		if !c.ds.isPosted(i, k) {
			continue
		}
		if n == 0 {
			size = c.ds.sizeAt(i, k)
		}
		n++
		c.rs[h-n] = c.ds.read(i, k)
		c.ws[h-n] = c.ds.write(i, k)
	}
	for j := 0; j < h-n; j++ {
		c.rs[j] = c.rs[h-n]
		c.ws[j] = c.ws[h-n]
	}
	return size
}

// billing is the bill of one full pass over the dense trace.
type billing struct {
	served, optimal, allHot float64
}

// bill prices the served tiers, the per-file offline optimum and the
// all-Hot counterfactual over the whole dense trace with
// costmodel.Model.PlanCost. A drifting dataset changes file sizes at its
// drift day, so each regime is priced as its own segment, the second
// starting from the tier the first ended in; the optimum is likewise
// policy.OptimalPlan per segment, chained.
func bill(ds *dataset, served []uint8, model *costmodel.Model) (billing, error) {
	per := make([][3]float64, ds.n)
	errs := make([]error, ds.n)
	par.For(ds.n, 0, func(i int) {
		plan := make(costmodel.Plan, ds.days)
		for d := range plan {
			plan[d] = pricing.Tier(served[i*ds.days+d])
		}
		reads := ds.reads[i*ds.days : (i+1)*ds.days]
		writes := ds.writes[i*ds.days : (i+1)*ds.days]
		hot := costmodel.Uniform(pricing.Hot, ds.days)
		var opt costmodel.Plan
		initial := pricing.Hot
		for seg, r := range ds.regimes() {
			p, _ := policy.OptimalPlan(model, ds.size[seg][i], reads[r[0]:r[1]], writes[r[0]:r[1]], initial)
			opt = append(opt, p...)
			initial = p[len(p)-1]
		}
		for k, plan := range []costmodel.Plan{plan, opt, hot} {
			cost, err := segmentCost(ds, model, plan, i, reads, writes)
			if err != nil {
				errs[i] = err
				return
			}
			per[i][k] = cost
		}
	})
	var b billing
	for i := range per {
		if errs[i] != nil {
			return b, errs[i]
		}
		b.served += per[i][0]
		b.optimal += per[i][1]
		b.allHot += per[i][2]
	}
	return b, nil
}

// segmentCost prices file i's plan per size regime with PlanCost.
func segmentCost(ds *dataset, model *costmodel.Model, plan costmodel.Plan, i int, reads, writes []float64) (float64, error) {
	total := 0.0
	initial := pricing.Hot
	for seg, r := range ds.regimes() {
		lo, hi := r[0], r[1]
		bd, err := model.PlanCost(initial, plan[lo:hi], ds.size[seg][i], reads[lo:hi], writes[lo:hi])
		if err != nil {
			return 0, err
		}
		total += bd.Total()
		initial = plan[hi-1]
	}
	return total, nil
}
