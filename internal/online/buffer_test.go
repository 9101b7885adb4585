package online

import (
	"testing"

	"minicost/internal/agentserver"
)

// obsEntry builds one observation.
func obsEntry(id string, size, reads, writes float64) agentserver.FileObservation {
	return agentserver.FileObservation{ID: id, SizeGB: size, Reads: reads, Writes: writes}
}

// quietDrift returns a drift sink that never calibrates (scores stay 0).
func quietDrift() *driftStats { return newDriftStats(0) }

func TestBufferRingKeepsLatestWindow(t *testing.T) {
	b := newBuffer(3, 16, 1)
	sh := b.shards[0]
	ds := quietDrift()
	for day := 1; day <= 5; day++ {
		batch := []agentserver.FileObservation{obsEntry("f0", 1, float64(day), float64(day*10))}
		ing, rej := sh.ingestBatch(batch, nil, uint64(day), ds)
		if ing != 1 || rej != 0 {
			t.Fatalf("day %d: ingested %d rejected %d", day, ing, rej)
		}
	}
	if got := int(sh.fill[0]); got != 3 {
		t.Fatalf("fill = %d, want 3 (window cap)", got)
	}
	rs := make([]float64, 3)
	ws := make([]float64, 3)
	sh.mu.Lock()
	sh.windowLatestInto(0, 3, rs, ws)
	sh.mu.Unlock()
	for i, want := range []float64{3, 4, 5} {
		if rs[i] != want || ws[i] != want*10 {
			t.Fatalf("window[%d] = (%v, %v), want (%v, %v)", i, rs[i], ws[i], want, want*10)
		}
	}
}

func TestBufferAdmissionBounded(t *testing.T) {
	b := newBuffer(4, 3, 1)
	sh := b.shards[0]
	ds := quietDrift()
	batch := []agentserver.FileObservation{
		obsEntry("a", 1, 1, 1), obsEntry("b", 1, 1, 1), obsEntry("c", 1, 1, 1),
		obsEntry("d", 1, 1, 1), obsEntry("e", 1, 1, 1),
	}
	ing, rej := sh.ingestBatch(batch, nil, 1, ds)
	if ing != 3 || rej != 2 {
		t.Fatalf("ingested %d rejected %d, want 3/2", ing, rej)
	}
	if b.files() != 3 {
		t.Fatalf("files = %d, want 3", b.files())
	}
	// Already-admitted files keep updating; the stranger stays rejected.
	batch2 := []agentserver.FileObservation{obsEntry("a", 2, 5, 5), obsEntry("d", 1, 1, 1)}
	ing, rej = sh.ingestBatch(batch2, nil, 2, ds)
	if ing != 1 || rej != 1 {
		t.Fatalf("second batch ingested %d rejected %d, want 1/1", ing, rej)
	}
	if sh.size[sh.index["a"]] != 2 {
		t.Fatalf("admitted file did not update")
	}
}

func TestBufferDuplicateLastWins(t *testing.T) {
	b := newBuffer(4, 8, 1)
	sh := b.shards[0]
	ds := quietDrift()
	batch := []agentserver.FileObservation{
		obsEntry("x", 1, 10, 1),
		obsEntry("x", 2, 99, 7),
	}
	ing, rej := sh.ingestBatch(batch, nil, 1, ds)
	if ing != 2 || rej != 0 {
		t.Fatalf("ingested %d rejected %d", ing, rej)
	}
	slot := sh.index["x"]
	if got := int(sh.fill[slot]); got != 1 {
		t.Fatalf("duplicate advanced the ring: fill = %d, want 1", got)
	}
	rs := make([]float64, 1)
	ws := make([]float64, 1)
	sh.mu.Lock()
	sh.windowLatestInto(slot, 1, rs, ws)
	sh.mu.Unlock()
	if rs[0] != 99 || ws[0] != 7 || sh.size[slot] != 2 {
		t.Fatalf("last entry did not win: reads=%v writes=%v size=%v", rs[0], ws[0], sh.size[slot])
	}
}

func TestSnapshotTraceSplitAndAlignment(t *testing.T) {
	b := newBuffer(6, 64, 1)
	sh := b.shards[0]
	ds := quietDrift()
	// Ten files observed for 5 days, one latecomer observed for 2.
	for day := 1; day <= 5; day++ {
		var batch []agentserver.FileObservation
		for i := 0; i < 10; i++ {
			batch = append(batch, obsEntry(fid(i), float64(i+1), float64(day*10+i), 1))
		}
		if day >= 4 {
			batch = append(batch, obsEntry("late", 0.5, 1, 1))
		}
		sh.ingestBatch(batch, nil, uint64(day), ds)
	}

	// minDays 3 excludes the latecomer (fill 2) and aligns on 5 days.
	train, holdout := b.snapshotTrace(3, 4)
	if train == nil || holdout == nil {
		t.Fatal("expected both splits")
	}
	if train.Days != 5 || holdout.Days != 5 {
		t.Fatalf("days = %d/%d, want 5", train.Days, holdout.Days)
	}
	// The holdout is keyed on file identity: exactly the eligible files
	// whose ID hash lands in residue class 0 mod 4. Sizes are unique per
	// file (i+1), so membership is checkable through the trace metadata.
	wantHold := map[float64]bool{}
	nHold := 0
	for i := 0; i < 10; i++ {
		if agentserver.HashID(fid(i))%4 == 0 {
			wantHold[float64(i+1)] = true
			nHold++
		}
	}
	if nHold == 0 || nHold == 10 {
		t.Fatalf("degenerate test split: %d/10 held out", nHold)
	}
	if holdout.NumFiles() != nHold || train.NumFiles() != 10-nHold {
		t.Fatalf("split = %d train / %d holdout, want %d/%d",
			train.NumFiles(), holdout.NumFiles(), 10-nHold, nHold)
	}
	for _, f := range holdout.Files {
		if !wantHold[f.SizeGB] {
			t.Fatalf("file of size %v held out, not in the identity-keyed class", f.SizeGB)
		}
	}
	for i := range train.Reads {
		if len(train.Reads[i]) != 5 || len(train.Writes[i]) != 5 {
			t.Fatalf("train series %d misaligned", i)
		}
	}

	// minDays 2 admits the latecomer and truncates everyone to 2 days.
	train2, _ := b.snapshotTrace(2, -1)
	if train2 == nil || train2.Days != 2 || train2.NumFiles() != 11 {
		t.Fatalf("minDays 2: got %v days, %d files; want 2 days, 11 files",
			train2.Days, train2.NumFiles())
	}
	// The truncated series carry the most recent days (4 and 5).
	for i := range train2.Reads {
		if train2.Files[i].SizeGB == 0.5 {
			continue // the latecomer's own pattern
		}
		if train2.Reads[i][0] < 40 {
			t.Fatalf("series %d does not start at the latest window: %v", i, train2.Reads[i])
		}
	}

	// No holdout requested.
	_, none := b.snapshotTrace(3, -1)
	if none != nil {
		t.Fatal("holdoutEvery < 0 must disable the holdout")
	}

	// Empty buffer → nil.
	empty := newBuffer(4, 4, 2)
	if tr, ho := empty.snapshotTrace(1, 5); tr != nil || ho != nil {
		t.Fatal("empty buffer must snapshot to nil")
	}

	// Admitting more files must not migrate existing files between splits:
	// the class is a function of identity, not of position in the eligible
	// ordering (a positional split would leak previously-trained files into
	// the gate's holdout).
	for day := 6; day <= 8; day++ {
		var batch []agentserver.FileObservation
		for i := 0; i < 14; i++ {
			batch = append(batch, obsEntry(fid(i), float64(i+1), 1, 1))
		}
		sh.ingestBatch(batch, nil, uint64(day), ds)
	}
	_, holdout2 := b.snapshotTrace(3, 4)
	if holdout2 == nil {
		t.Fatal("expected a holdout after growth")
	}
	for _, f := range holdout2.Files {
		if f.SizeGB <= 10 && !wantHold[f.SizeGB] {
			t.Fatalf("holdout membership shifted after growth: size %v", f.SizeGB)
		}
	}
}

func fid(i int) string {
	return string([]byte{'f', byte('0' + i/10), byte('0' + i%10)})
}

// TestGapDimensionCountsPerFileObservedDays pins the drift gap unit: gaps
// are measured in a file's own observed-day ordinals, not in global tap
// batches, so splitting one workload day across many observe batches (the
// loadgen deployment shape) does not inflate them away from the trace-day
// baseline, and out-of-order batch arrival cannot produce negative gaps.
func TestGapDimensionCountsPerFileObservedDays(t *testing.T) {
	b := newBuffer(8, 16, 1)
	sh := b.shards[0]
	ds := newDriftStats(0) // not calibrating: samples land in the current window
	// "f" is observed once per workload day, but each day arrives as three
	// observe batches ("f" rides in the first; the siblings advance the
	// global batch counter without touching it). Active on days 1 and 3,
	// idle on day 2.
	seq := uint64(0)
	observeDay := func(reads float64) {
		seq++
		sh.ingestBatch([]agentserver.FileObservation{obsEntry("f", 1, reads, 0)}, nil, seq, ds)
		seq += 2 // two sibling batches of the same workload day
	}
	observeDay(5) // day 1: active
	observeDay(0) // day 2: idle
	observeDay(7) // day 3: active → gap = 2 observed days, not 6 tap batches
	g := ds.cur[dimGap]
	if g.total != 1 {
		t.Fatalf("gap samples = %v, want 1", g.total)
	}
	// A gap of 2 lands in bucket 1 (edges 1.5 ≤ v < 2.5); a batch-counted
	// gap of 6 would land in bucket 3.
	if g.counts[1] != 1 {
		t.Fatalf("gap histogram %v, want the single sample in bucket 1 (gap=2 days)", g.counts)
	}
}
