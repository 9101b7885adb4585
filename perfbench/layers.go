package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// measureTraced replays for the run's duration untraced, then as long again
// traced, each phase starting from day 0 of a fresh stack, and reports the
// per-layer metrics of the traced phase next to the tracing overhead.
func measureTraced(rp *replayer, dur time.Duration, rep *report, trainRates []float64, seed uint64, res *result) error {
	untraced, traced := &phase{}, &phase{}
	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rp.passes(untraced, nil, time.Now().Add(dur), false); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	if err := rp.passes(traced, rec, time.Now().Add(dur), false); err != nil {
		return err
	}
	res.Attempted = untraced.requests + traced.requests
	res.Failed = untraced.failed + traced.failed
	rep.info("replay: %d untraced + %d traced passes, %d + %d day cycles, %d requests, %d failed",
		untraced.passes, traced.passes, len(untraced.cycles), len(traced.cycles), res.Attempted, res.Failed)
	for _, ph := range []*phase{untraced, traced} {
		if ph.firstErr != nil {
			rep.info("first failed request: %v", ph.firstErr)
		}
	}

	spans := rec.snapshot()
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", rp.w.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.info("%d spans written to %s", len(spans), path)

	l := summarize(spans, warmupDays)
	n := func(k int) string { return fmt.Sprintf("n=%d", k) }
	notExercised := "not exercised by this workload"
	perRow := func(name string, busy float64, rows int64, note string) {
		if rows == 0 {
			rep.metric(name, 0, "ns", notExercised)
			return
		}
		rep.metric(name, busy/float64(rows), "ns", fmt.Sprintf("rows=%d %s", rows, note))
	}
	perRow("agentserver.observe.decode_ns_per_row", l.decode, l.decodeRows,
		fmt.Sprintf("harness proxy: the middleware's own JSON decode of the request bytes, not the handler's, every %dth batch", decodeSampleEvery))
	perRow("agentserver.observe.ingest_ns_per_row", l.preResponse-l.decode, l.decodeRows,
		"harness proxy: same batches, handler time to the response header minus the proxy decode (Server.Observe incl. tap)")
	rep.metric("agentserver.observe.handler_ms_p50", median(l.observeHandler), "ms", n(len(l.observeHandler)))
	rep.metric("http.observe.transport_ms_p50", median(l.observeTransport), "ms", n(len(l.observeTransport))+" client round trip minus handler")
	rep.metric("agentserver.plan.build_ms_p50", median(l.build), "ms", n(len(l.build)))
	rep.metric("agentserver.plan.encode_ms_p50", median(l.encode), "ms", n(len(l.encode)))
	rep.metric("agentserver.plan.bytes", median(l.planBytes), "bytes", n(len(l.planBytes))+" median response body")
	rep.metric("client.plan.decode_ms_p50", median(l.clientDecode), "ms", n(len(l.clientDecode)))
	share := 0.0
	if traced.entries > 0 {
		share = float64(traced.decided) / float64(traced.entries)
	}
	rep.metric("agentserver.plan.decided_share", share, "ratio", fmt.Sprintf("decided=%d of entries=%d", traced.decided, traced.entries))
	rep.metric("agentserver.plan.decided", float64(traced.decided), "count", "summed over traced plans")
	rep.metric("agentserver.plan.entries", float64(traced.entries), "count", "summed over traced plans")
	rep.metric("agentserver.plan.transitions", float64(traced.transitions), "count", "summed over traced plans")
	rep.metric("agentserver.tracked_files", float64(traced.trackedFiles), "count", "at the end of the last traced pass")
	rep.metric("agentserver.replicas", float64(traced.replicas), "count", "at the end of the last traced pass")
	perRow("rl.decide_ns_per_row", l.decide, l.decideRows, "Agent.DecideBatch on the plans' decided rows rebuilt by the harness, one goroutine, sampled")
	workers := runtime.GOMAXPROCS(0)
	decideShare := 0.0
	if b := sum(l.build); b > 0 && l.decideRows > 0 {
		decideMS := l.decide / float64(l.decideRows) * float64(traced.decided) / 1e6
		decideShare = decideMS / (b * float64(workers))
	}
	rep.metric("rl.decide_share_of_build", decideShare, "ratio",
		fmt.Sprintf("decide ns/row x decided rows over build wall time x %d workers", workers))
	rep.metric("rl.train_steps_per_s", median(trainRates), "1/s", n(len(trainRates))+" bootstrap sys.Train")

	if rp.w.online && traced.lastTrainFiles > 0 {
		ft, gate, err := epochReplica(rp, traced)
		if err != nil {
			return fmt.Errorf("epoch replica: %w", err)
		}
		rep.metric("rl.finetune_steps_per_s", ft, "1/s", fmt.Sprintf("A3C.FineTune of %d steps on the last epoch's shape, idle CPU", finetuneSteps))
		rep.metric("rl.gate_eval_ms", gate, "ms", "rl.EvaluateAgent x2 on the last epoch's holdout shape, idle CPU")
	} else {
		rep.metric("rl.finetune_steps_per_s", 0, "1/s", notExercised+" (or no epoch within the traced phase)")
		rep.metric("rl.gate_eval_ms", 0, "ms", notExercised+" (or no epoch within the traced phase)")
	}
	perRow("online.tap_ns_per_row", l.tap, l.tapRows, "SetTap wrapper")
	if len(traced.overlap) > 0 {
		rep.metric("online.observe_overlap_p90_ms", quantile(traced.overlap, 0.9), "ms", n(len(traced.overlap))+" observe requests overlapping an epoch")
	} else {
		rep.metric("online.observe_overlap_p90_ms", 0, "ms", notExercised)
	}
	if len(traced.epochs) > 0 {
		rep.metric("online.epoch_p50_s", median(traced.epochs), "s", n(len(traced.epochs)))
	} else {
		rep.metric("online.epoch_p50_s", 0, "s", notExercised)
	}
	rep.metric("online.epochs", float64(traced.epochCount), "count", "summed over traced passes")
	rep.metric("online.swaps", float64(traced.swaps), "count", "summed over traced passes")
	rep.metric("online.swaps_rejected", float64(traced.rejected), "count", "summed over traced passes")
	rep.metric("online.buffer_files", float64(traced.bufferFiles), "count", "at the end of the last traced pass")
	rep.metric("go.alloc_bytes_per_row", float64(after.TotalAlloc-before.TotalAlloc)/float64(untraced.allRows), "bytes", "untraced phase, whole process")
	rep.metric("go.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms", "untraced phase, whole process")

	u, t := median(untraced.cycles), median(traced.cycles)
	rep.metric("trace.cycle_p50_s_untraced", u, "s", n(len(untraced.cycles)))
	rep.metric("trace.cycle_p50_s_traced", t, "s", n(len(traced.cycles)))
	rep.metric("trace.overhead_ratio", t/u, "ratio", "traced over untraced cycle_p50_s")
	return nil
}

// layers aggregates the traced spans.
type layers struct {
	// decodeRows counts the rows of the re-timed batches; decode and
	// preResponse sum over those batches only.
	decodeRows, decideRows, tapRows int64
	// busy times in ns
	decode, preResponse, decide, tap float64
	// per-request samples in ms (planBytes in bytes)
	observeHandler, observeTransport       []float64
	build, encode, clientDecode, planBytes []float64
}

// summarize aggregates the spans of days fromDay and later.
func summarize(spans []span, fromDay int32) *layers {
	l := &layers{}
	handlerOf := map[uint64]float64{}
	preResponseOf := map[uint64]float64{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanObserveHandler:
			handlerOf[s.Parent] = s.dur()
		case spanObservePre:
			preResponseOf[s.Parent] = s.dur()
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Day < fromDay {
			continue
		}
		ms := s.dur() / 1e6
		switch s.Name {
		case spanClientObserve:
			if h, ok := handlerOf[s.ID]; ok {
				l.observeTransport = append(l.observeTransport, (s.dur()-h)/1e6)
			}
		case spanObserveDecode:
			if pre, ok := preResponseOf[s.Parent]; ok {
				l.decode += s.dur()
				l.preResponse += pre
				l.decodeRows += int64(s.Rows)
			}
		case spanObserveHandler:
			l.observeHandler = append(l.observeHandler, ms)
		case spanPlanBuild:
			l.build = append(l.build, ms)
		case spanPlanEncode:
			l.encode = append(l.encode, ms)
		case spanPlanHandler:
			l.planBytes = append(l.planBytes, float64(s.Bytes))
		case spanClientPlanDec:
			l.clientDecode = append(l.clientDecode, ms)
		case spanDecide:
			l.decide += s.dur()
			l.decideRows += int64(s.Rows)
		case spanTap:
			l.tap += s.dur()
			l.tapRows += int64(s.Rows)
		}
	}
	return l
}

// epochReplica times the two halves of a fine-tune epoch on idle CPU, on
// the shape of the traced run's last epoch: A3C.FineTune of finetuneSteps
// over a train slice of the dataset, and the swap gate's two
// rl.EvaluateAgent calls over a holdout slice. It returns steps/s and ms.
func epochReplica(rp *replayer, traced *phase) (float64, float64, error) {
	days := min(traced.bufferWindow, rp.ds.days)
	trainFiles, holdFiles := traced.lastTrainFiles, traced.lastHoldoutFiles
	train := sliceTrace(rp.ds, 0, trainFiles, days)
	hold := sliceTrace(rp.ds, trainFiles, trainFiles+holdFiles, days)
	src, err := rl.NewTraceSource(rp.boot.model, train, rp.w.net.HistLen, mdp.DefaultReward(), pricing.Hot)
	if err != nil {
		return 0, 0, err
	}
	tr, err := newTrainer(rp.boot)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	stats, err := tr.FineTune(src, finetuneSteps)
	if err != nil {
		return 0, 0, err
	}
	ft := float64(stats.Steps) / time.Since(t0).Seconds()
	cand := tr.Snapshot()
	t0 = time.Now()
	for _, a := range []*rl.Agent{cand, rp.boot.agent} {
		if _, _, err := rl.EvaluateAgent(a, rp.boot.model, hold, rp.w.net.HistLen, pricing.Hot); err != nil {
			return 0, 0, err
		}
	}
	return ft, float64(time.Since(t0).Microseconds()) / 1000, nil
}

// sliceTrace copies files [lo, hi) over the dataset's first days days into
// a trace.Trace.
func sliceTrace(ds *dataset, lo, hi, days int) *trace.Trace {
	hi = min(hi, ds.n)
	tr := &trace.Trace{Days: days}
	for i := lo; i < hi; i++ {
		tr.Files = append(tr.Files, trace.FileMeta{ID: i - lo, SizeGB: ds.sizeAt(i, 0)})
		tr.Reads = append(tr.Reads, append([]float64(nil), ds.reads[i*ds.days:i*ds.days+days]...))
		tr.Writes = append(tr.Writes, append([]float64(nil), ds.writes[i*ds.days:i*ds.days+days]...))
	}
	return tr
}
