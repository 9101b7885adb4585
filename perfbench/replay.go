package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/online"
)

// clients is the closed loop's client count; each holds one connection.
const clients = 2

// warmupDays are replayed but left out of every timing and plan counter:
// day 0 registers every file (the whole inventory on sparse-1m) and day 1
// re-decides the files day 0 moved, so neither is a steady daily cycle.
// The bill and the correctness checks cover every day.
const warmupDays = 2

// Traced runs re-time the observe decode on every decodeSampleEvery-th
// batch and the plan's decisions on at most decideSampleRows rows per plan,
// which keeps the re-timing from dominating the traced cycle.
const (
	decodeSampleEvery = 4
	decideSampleRows  = 16384
)

// phase accumulates the raw samples of every pass of one kind (untraced or
// traced).
type phase struct {
	// Samples of the days after the warm-up.
	cycles   []float64 // s, first observe POST to plan response
	observe  []float64 // ms, client-side POST /v1/observe
	overlap  []float64 // ms, the observe requests that overlapped an epoch
	plan     []float64 // ms, client-side GET /v1/plan
	epochs   []float64 // s, fine-tune epoch wall time
	rows     int64     // observation rows posted after the warm-up
	allRows  int64     // observation rows posted, every day
	requests int64
	failed   int64
	firstErr error
	passes   int

	// Process CPU time (all threads, client and server) of the same days.
	cycleCPU   []float64 // s per day cycle
	observeCPU []float64 // ms per observe request, averaged over a day without an epoch
	planCPU    []float64 // ms per plan request

	// Learner and server counters, summed over passes.
	epochCount, swaps, rejected int64
	bufferFiles, bufferWindow   int
	// lastTrainFiles/lastHoldoutFiles are the last epoch's snapshot shape.
	lastTrainFiles, lastHoldoutFiles int
	trackedFiles                     int
	replicas                         int64
	decided, entries                 int64
	transitions                      int64
}

// replayer replays a dataset through fresh serving stacks.
type replayer struct {
	w      workload
	ds     *dataset
	bodies [][][]byte
	boot   *boot
	hc     *http.Client
	// bill is set by the first full pass.
	bill *billing
	// checks sums the correctness checks of every pass.
	checks checkSummary
}

// checkSummary sums the checks of every pass.
type checkSummary struct {
	plans, oracleRows int
	errList
}

func (s *checkSummary) add(c *checker) {
	s.plans += c.plans
	s.oracleRows += c.oracleRows
	s.merge(&c.errList)
}

func newReplayer(w workload, ds *dataset, bodies [][][]byte, b *boot) *replayer {
	return &replayer{
		w: w, ds: ds, bodies: bodies, boot: b,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
}

// epochDay reports whether a fine-tune epoch starts before day d's posts:
// every epochEvery days once the learner has HistLen buffered days.
func (rp *replayer) epochDay(d int) bool {
	h := rp.w.net.HistLen
	return rp.w.online && d >= h && (d-h)%rp.w.epochEvery == 0
}

// pass replays the whole dataset day by day through a fresh stack: the
// day's observe batches from the clients, then one plan that closes the
// day, the next day waiting for it. Passes are never cut short, so every
// pass samples the same days whatever the program's speed. With recordBill
// set it records the bill. With rec set the stack and the requests are
// traced.
func (rp *replayer) pass(ph *phase, rec *recorder, recordBill bool) (err error) {
	st, err := newStack(rp.w, rp.boot, rec)
	if err != nil {
		return err
	}
	defer rp.hc.CloseIdleConnections()
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()
	chk := newChecker(rp.ds, rp.boot.agent, recordBill)
	if rec != nil {
		chk.rec, chk.decider, chk.shards = rec, rp.boot.agent.Clone(), st.srv.Shards()
	}
	defer rp.checks.add(chk)
	ph.passes++
	defer ph.record(st)
	var swaps int64
	var running atomic.Bool
	for d := 0; d < rp.ds.days; d++ {
		var ep *epoch
		if rp.epochDay(d) {
			ep = startEpoch(st, &running)
		}
		start, cpu0 := time.Now(), cpuNow()
		keep := d >= warmupDays
		rp.postDay(ph, st.url, d, rec, &running, keep)
		cpu1 := cpuNow()
		if ep != nil {
			<-ep.done
			if keep {
				ph.epochs = append(ph.epochs, ep.end.Sub(ep.start).Seconds())
			}
			if rec != nil {
				rec.add(span{ID: rec.newID(), Name: spanEpoch, Day: int32(d), Start: rec.at(ep.start), End: rec.at(ep.end)})
			}
			if ep.err != nil {
				rp.checks.fail("day %d: fine-tune epoch: %v", d, ep.err)
			}
		}
		cpu2 := cpuNow()
		plan, lat, err := rp.getPlan(st.url, d, rec)
		ph.requests++
		if err != nil {
			ph.failed++
			return fmt.Errorf("day %d: plan: %w", d, err)
		}
		cycle, cpu3 := time.Since(start).Seconds(), cpuNow()
		ph.allRows += int64(len(rp.ds.posted[d]))
		if keep {
			ph.rows += int64(len(rp.ds.posted[d]))
			ph.cycles = append(ph.cycles, cycle)
			ph.plan = append(ph.plan, lat)
			ph.cycleCPU = append(ph.cycleCPU, cpu3-cpu0)
			ph.planCPU = append(ph.planCPU, 1e3*(cpu3-cpu2))
			if ep == nil {
				ph.observeCPU = append(ph.observeCPU, 1e3*(cpu1-cpu0)/float64(len(rp.bodies[d])))
			}
			ph.decided += int64(plan.Decided)
			ph.entries += int64(len(plan.Files))
			ph.transitions += int64(plan.Transition)
		}
		swapped := false
		if st.learner != nil {
			if s := st.learner.Status().Swaps; s > swaps {
				swaps, swapped = s, true
			}
		}
		chk.plan(d, plan, swapped)
	}
	chk.finish()
	if recordBill {
		b, err := bill(rp.ds, chk.served, rp.boot.model)
		if err != nil {
			return err
		}
		rp.bill = &b
	}
	return nil
}

// record adds a finished pass's server and learner counters.
func (ph *phase) record(st *stack) {
	stats := st.srv.Stats()
	ph.trackedFiles = stats.TrackedFiles
	ph.replicas = stats.Replicas
	if st.learner != nil {
		ls := st.learner.Status()
		ph.epochCount += ls.Epochs
		ph.swaps += ls.Swaps
		ph.rejected += ls.SwapsRejected
		ph.bufferFiles, ph.bufferWindow = ls.BufferFiles, ls.BufferWindow
		if ls.LastTrainFiles > 0 {
			ph.lastTrainFiles, ph.lastHoldoutFiles = ls.LastTrainFiles, ls.LastHoldoutFiles
		}
	}
}

// epoch is one fine-tune epoch running beside serving.
type epoch struct {
	done       chan struct{}
	start, end time.Time
	err        error
}

// startEpoch runs Learner.RunEpoch on its own goroutine and returns once
// the epoch has taken its buffer snapshot (the trainer starts stepping) or
// ended, so the snapshot holds exactly the days before this one and the
// epoch's training overlaps this day's observe traffic.
func startEpoch(st *stack, running *atomic.Bool) *epoch {
	ep := &epoch{done: make(chan struct{}), start: time.Now()}
	before := st.trainer.Steps()
	running.Store(true)
	go func() {
		defer close(ep.done)
		ep.err = st.learner.RunEpoch()
		if errors.Is(ep.err, online.ErrNotEnoughData) {
			ep.err = fmt.Errorf("learner had too few buffered days: %w", ep.err)
		}
		ep.end = time.Now()
		running.Store(false)
	}()
	for st.trainer.Steps() == before {
		select {
		case <-ep.done:
			return ep
		case <-time.After(50 * time.Microsecond):
		}
	}
	return ep
}

// postDay sends day d's observe batches, shared by the clients. With the
// learner on, day 0 comes from one client: it registers the population in
// ID order, so the replay buffer's file order, and with it every fine-tune
// epoch, is the same in every run.
func (rp *replayer) postDay(ph *phase, url string, d int, rec *recorder, running *atomic.Bool, keep bool) {
	bodies := rp.bodies[d]
	n := clients
	if d == 0 && rp.w.online {
		n = 1
	}
	var next atomic.Int64
	type result struct {
		observe, overlap []float64
		failed, sent     int64
		err              error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(res *result) {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= len(bodies) {
					return
				}
				res.sent++
				overlapped := running.Load()
				lat, err := rp.observe(url, d, b, rec)
				if err != nil {
					res.failed++
					if res.err == nil {
						res.err = fmt.Errorf("day %d batch %d: %w", d, b, err)
					}
					continue
				}
				res.observe = append(res.observe, lat)
				if overlapped || running.Load() {
					res.overlap = append(res.overlap, lat)
				}
			}
		}(&results[c])
	}
	wg.Wait()
	for _, r := range results {
		if keep {
			ph.observe = append(ph.observe, r.observe...)
			ph.overlap = append(ph.overlap, r.overlap...)
		}
		ph.requests += r.sent
		ph.failed += r.failed
		if r.err != nil && ph.firstErr == nil {
			ph.firstErr = r.err
		}
	}
}

// observe posts body b of day d and returns its client-side latency in ms.
func (rp *replayer) observe(url string, d, b int, rec *recorder) (float64, error) {
	body := rp.bodies[d][b]
	rows := batchRowCount(rp.ds, rp.w.batchRows, d, b)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var cs span
	if rec != nil {
		cs = span{ID: rec.newID(), Name: spanClientObserve, Day: int32(d), Rows: int32(rows)}
		rec.batchOwner.Store(fileID(int(rp.ds.posted[d][b*rp.w.batchRows])), cs)
		req.Header.Set(hdrSpan, strconv.FormatUint(cs.ID, 10))
		req.Header.Set(hdrDay, strconv.Itoa(d))
		if b%decodeSampleEvery == 0 {
			req.Header.Set(hdrRetime, "1")
		}
		cs.Start = rec.now()
	}
	t0 := time.Now()
	resp, err := rp.hc.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("observe: HTTP %d: %s", resp.StatusCode, data)
	}
	var or agentserver.ObserveResponse
	if err := json.Unmarshal(data, &or); err != nil {
		return 0, err
	}
	if or.Accepted != rows || or.Duplicates != 0 {
		return 0, fmt.Errorf("observe: accepted %d of %d rows, %d duplicates", or.Accepted, rows, or.Duplicates)
	}
	if rec != nil {
		cs.End = cs.Start + int64(lat)
		rec.add(cs)
	}
	return float64(lat) / 1e6, nil
}

// getPlan fetches the plan closing day d; the latency covers build, encode,
// transfer and the client's decode.
func (rp *replayer) getPlan(url string, d int, rec *recorder) (*agentserver.PlanResponse, float64, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/v1/plan", nil)
	if err != nil {
		return nil, 0, err
	}
	var cs span
	if rec != nil {
		cs = span{ID: rec.newID(), Name: spanClientPlan, Day: int32(d)}
		req.Header.Set(hdrSpan, strconv.FormatUint(cs.ID, 10))
		req.Header.Set(hdrDay, strconv.Itoa(d))
		cs.Start = rec.now()
	}
	t0 := time.Now()
	resp, err := rp.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	readAt := time.Now()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	decodeAt := time.Now()
	var plan agentserver.PlanResponse
	if err := json.Unmarshal(data, &plan); err != nil {
		return nil, 0, err
	}
	lat := time.Since(t0)
	if rec != nil {
		cs.End = cs.Start + int64(lat)
		cs.Bytes = int64(len(data))
		rec.add(cs)
		at := func(t time.Time) int64 { return cs.Start + int64(t.Sub(t0)) }
		rec.add(span{ID: rec.newID(), Parent: cs.ID, Name: spanClientPlanRead, Day: int32(d), Start: at(readAt), End: at(decodeAt), Bytes: int64(len(data))})
		rec.add(span{ID: rec.newID(), Parent: cs.ID, Name: spanClientPlanDec, Day: int32(d), Start: at(decodeAt), End: cs.End})
	}
	return &plan, float64(lat) / 1e6, nil
}

// timeDecide re-runs the plan's decisions in the harness: an even sample of
// the rows the plan after day d re-decided, rebuilt from what was sent, fed
// to Agent.DecideBatch on one goroutine in batches the size of one shard's
// share of all decided rows (the server decides per shard, at most 4096
// rows at a time). Only DecideBatch is timed.
func (c *checker) timeDecide(d int, swapped bool) {
	rows := c.rows[:0]
	for i := 0; i < c.ds.n; i++ {
		if c.seen[i] && (swapped || c.ds.isPosted(i, d) || c.changedMark[i]) {
			rows = append(rows, int32(i))
		}
	}
	c.rows = rows
	chunk := min(4096, (len(rows)+c.shards-1)/c.shards)
	if stride := (len(rows) + decideSampleRows - 1) / decideSampleRows; stride > 1 {
		for k := range rows[:len(rows)/stride] {
			rows[k] = rows[k*stride]
		}
		rows = rows[:len(rows)/stride]
	}
	var busy int64
	for lo := 0; lo < len(rows); lo += chunk {
		hi := min(lo+chunk, len(rows))
		c.features(d, rows[lo:hi])
		s := c.rec.now()
		c.decider.DecideBatch(c.feats, c.tiers, 1)
		busy += c.rec.now() - s
	}
	now := c.rec.now()
	c.rec.add(span{ID: c.rec.newID(), Name: spanDecide, Day: int32(d), Rows: int32(len(rows)), Start: now - busy, End: now})
}
