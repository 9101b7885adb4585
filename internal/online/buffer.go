// Package online closes the paper's serve→train loop (DESIGN.md §17): a
// continuous-learning subsystem that taps the live /v1/observe stream into a
// bounded, sharded replay buffer, detects distribution drift against the
// training baseline, periodically fine-tunes the A3C policy on environments
// reconstructed from the buffered windows, and hot-swaps the result into
// serving through the ReplicaPool snapshot machinery — behind a validation
// gate that rejects candidates regressing simulated cost on a held-out
// buffer slice.
//
// The package is on minicost-vet's deterministic list: given a seed and an
// observation sequence, every decision the learner makes (buffer admission,
// train/holdout split, drift score, gate verdict) is a pure function of its
// inputs. Wall-clock reads exist only on annotated instrumentation lines.
package online

import (
	"sync"
	"sync/atomic"

	"minicost/internal/agentserver"
	"minicost/internal/trace"
)

// buffer is the bounded replay/trace store behind the observe tap: tracked
// files sharded across power-of-two partitions, each shard holding the same
// struct-of-arrays ring layout the serving store uses — flat size array plus
// histLen-cell read/write rings per slot — so ingest is flat array writes
// with no per-file allocation and snapshotting linearizes windows straight
// out of the rings.
type buffer struct {
	shards []*bufShard
	mask   uint32
	window int
}

// bufShard is one partition of the replay buffer. All slot-indexed fields
// are struct-of-arrays; the shard stops admitting new files at cap (existing
// files keep updating), which is what bounds the buffer's memory.
type bufShard struct {
	mu     sync.Mutex
	window int
	cap    int

	index map[string]int32 // file ID → slot
	ids   []string         // slot → file ID

	size   []float64 // last observed size, GB
	reads  []float64 // ring buffers, window cells per slot
	writes []float64
	head   []int32  // next ring write position per slot
	fill   []int32  // observed days per slot, capped at window
	seq    []uint64 // tap-batch sequence of the slot's last entry (duplicate detection)

	// seen counts the slot's ingested observations — the file's observed
	// days, one per tap batch it appeared in, uncapped by the ring window.
	seen []int64
	// lastActive is the seen ordinal of the slot's last observation with
	// any read or write traffic; 0 until the first. The drift detector's
	// inter-access-gap dimension is seen − lastActive at the next active
	// observation: a per-file day count, so gaps stay in the trace-day
	// units the baseline is seeded in no matter how many observe batches a
	// workload day is split into, and stay non-negative regardless of the
	// order concurrent requests reach the tap.
	lastActive []int64

	files atomic.Int64
}

// newBuffer builds a buffer of `shards` partitions (rounded up to a power of
// two) holding at most maxFiles files in windows of `window` days.
func newBuffer(window, maxFiles, shards int) *buffer {
	if shards < 1 {
		shards = 1
	}
	p := 1
	for p < shards {
		p <<= 1
	}
	perShard := maxFiles / p
	if perShard < 1 {
		perShard = 1
	}
	b := &buffer{shards: make([]*bufShard, p), mask: uint32(p - 1), window: window}
	for i := range b.shards {
		b.shards[i] = &bufShard{
			window: window,
			cap:    perShard,
			index:  make(map[string]int32),
		}
	}
	return b
}

// files sums the shard populations without taking any lock.
func (b *buffer) files() int {
	n := int64(0)
	for _, sh := range b.shards {
		n += sh.files.Load()
	}
	return int(n)
}

// addSlot grows every slot-indexed array by one. Caller holds sh.mu and has
// checked the admission cap.
func (sh *bufShard) addSlot(id string) int32 {
	slot := int32(len(sh.ids))
	sh.ids = append(sh.ids, id)
	sh.size = append(sh.size, 0)
	for i := 0; i < sh.window; i++ {
		sh.reads = append(sh.reads, 0)
		sh.writes = append(sh.writes, 0)
	}
	sh.head = append(sh.head, 0)
	sh.fill = append(sh.fill, 0)
	sh.seq = append(sh.seq, 0)
	sh.seen = append(sh.seen, 0)
	sh.lastActive = append(sh.lastActive, 0)
	sh.index[id] = slot
	sh.files.Store(int64(len(sh.ids)))
	return slot
}

// ingestBatch applies this shard's entries of one tap batch in batch order.
// idxs selects the batch positions owned by this shard; nil means the whole
// batch (the single-shard fast path). seq detects duplicate IDs within the
// batch (last entry wins, the ring advances once). Drift samples — including
// inter-access gaps, measured in each file's own observed-day ordinals —
// flow through ds. Returns (ingested, rejected) counts; rejections are
// observations for files the bounded shard had no room to admit.
//
//minicost:hotpath
func (sh *bufShard) ingestBatch(files []agentserver.FileObservation, idxs []int32, seq uint64, ds *driftStats) (ingested, rejected int) {
	sh.mu.Lock()
	if idxs == nil {
		for i := range files {
			ok := sh.ingestEntry(&files[i], seq, ds)
			if ok {
				ingested++
			} else {
				rejected++
			}
		}
	} else {
		for _, bi := range idxs {
			ok := sh.ingestEntry(&files[bi], seq, ds)
			if ok {
				ingested++
			} else {
				rejected++
			}
		}
	}
	sh.mu.Unlock()
	return ingested, rejected
}

// ingestEntry routes one observation to its slot, admitting the file on
// first sight if the shard has room. Returns false when the observation was
// dropped (shard full). Caller holds sh.mu.
//
//minicost:hotpath
func (sh *bufShard) ingestEntry(f *agentserver.FileObservation, seq uint64, ds *driftStats) bool {
	slot, ok := sh.index[f.ID]
	if !ok {
		if len(sh.ids) >= sh.cap {
			return false
		}
		slot = sh.addSlot(f.ID)
	}
	if sh.seq[slot] == seq {
		// Duplicate ID within the batch: last wins, the ring advanced on the
		// first entry. Drift stats keep the first entry's sample — one
		// sample per file per batch either way.
		sh.overwriteToday(slot, f.SizeGB, f.Reads, f.Writes)
		return true
	}
	sh.seq[slot] = seq
	sh.seen[slot]++
	ds.observeReads(f.Reads)
	ds.observeWrites(f.Writes)
	ds.observeSize(f.SizeGB)
	if f.Reads > 0 || f.Writes > 0 {
		if last := sh.lastActive[slot]; last > 0 {
			ds.observeGap(float64(sh.seen[slot] - last))
		}
		sh.lastActive[slot] = sh.seen[slot]
	}
	sh.ingestOne(slot, f.SizeGB, f.Reads, f.Writes)
	return true
}

// ingestOne appends one day's measurement to a slot's ring buffers — the
// replay-buffer ingest kernel on the observe-tap hot path.
//
//minicost:hotpath
func (sh *bufShard) ingestOne(slot int32, sizeGB, reads, writes float64) {
	base := int(slot) * sh.window
	h := int(sh.head[slot])
	sh.reads[base+h] = reads
	sh.writes[base+h] = writes
	h++
	if h == sh.window {
		h = 0
	}
	sh.head[slot] = int32(h)
	if int(sh.fill[slot]) < sh.window {
		sh.fill[slot]++
	}
	sh.size[slot] = sizeGB
}

// overwriteToday replaces the slot's most recent ring entry — the last-wins
// path for duplicate IDs within one tap batch. Caller holds sh.mu.
//
//minicost:hotpath
func (sh *bufShard) overwriteToday(slot int32, sizeGB, reads, writes float64) {
	base := int(slot) * sh.window
	h := int(sh.head[slot]) - 1
	if h < 0 {
		h = sh.window - 1
	}
	sh.reads[base+h] = reads
	sh.writes[base+h] = writes
	sh.size[slot] = sizeGB
}

// windowLatestInto copies the slot's most recent `days` ring entries,
// oldest-first, into rs/ws (each of length days). Caller holds sh.mu and
// guarantees fill[slot] >= days.
func (sh *bufShard) windowLatestInto(slot int32, days int, rs, ws []float64) {
	base := int(slot) * sh.window
	// head points at the next write position; the newest entry is head-1,
	// the oldest of the latest `days` entries is head-days (mod window).
	start := int(sh.head[slot]) - days
	if start < 0 {
		start += sh.window
	}
	for i := 0; i < days; i++ {
		j := start + i
		if j >= sh.window {
			j -= sh.window
		}
		rs[i] = sh.reads[base+j]
		ws[i] = sh.writes[base+j]
	}
}

// eligibleFile is one buffered file selected for a training snapshot.
type eligibleFile struct {
	shard int
	slot  int32
	size  float64
	fill  int
	hold  bool
}

// snapshotTrace reconstructs training material from the buffered windows:
// every file with at least minDays observed days contributes its most recent
// `days` entries, where days is the minimum fill among eligible files (so
// all series align, as trace.Trace requires). Eligible files whose ID hash
// falls in the holdout residue class (agentserver.HashID mod holdoutEvery == 0, a ~1/k
// slice) land in the held-out trace the validation gate scores candidates
// on; the rest form the training trace. Keying the split on file identity —
// not on position in the eligible ordering — keeps membership stable as new
// files are admitted, so the gate never scores a candidate on files a prior
// epoch trained on. Either return may be nil when no file qualifies for it.
func (b *buffer) snapshotTrace(minDays, holdoutEvery int) (train, holdout *trace.Trace) {
	if minDays < 1 {
		minDays = 1
	}
	var eligible []eligibleFile
	days := b.window
	for si, sh := range b.shards {
		sh.mu.Lock()
		for slot := range sh.ids {
			f := int(sh.fill[slot])
			if f < minDays {
				continue
			}
			if f < days {
				days = f
			}
			hold := holdoutEvery > 0 && agentserver.HashID(sh.ids[slot])%uint64(holdoutEvery) == 0
			eligible = append(eligible, eligibleFile{shard: si, slot: int32(slot), size: sh.size[slot], fill: f, hold: hold})
		}
		sh.mu.Unlock()
	}
	if len(eligible) == 0 {
		return nil, nil
	}
	train = &trace.Trace{Days: days}
	holdout = &trace.Trace{Days: days}
	for g, ef := range eligible {
		dst := train
		if ef.hold {
			dst = holdout
		}
		rs := make([]float64, days)
		ws := make([]float64, days)
		sh := b.shards[ef.shard]
		sh.mu.Lock()
		// Fill can only have grown since the scan; the latest `days`
		// entries are still present in the ring.
		sh.windowLatestInto(ef.slot, days, rs, ws)
		size := sh.size[ef.slot]
		sh.mu.Unlock()
		dst.Files = append(dst.Files, trace.FileMeta{ID: g, SizeGB: size})
		dst.Reads = append(dst.Reads, rs)
		dst.Writes = append(dst.Writes, ws)
	}
	if len(train.Files) == 0 {
		train = nil
	}
	if len(holdout.Files) == 0 {
		holdout = nil
	}
	return train, holdout
}
