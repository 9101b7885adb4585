package nn

import (
	"fmt"

	"minicost/internal/mat"
	"minicost/internal/par"
)

// Batched forward: ForwardBatch runs a whole batch of samples (one per
// matrix row) through a layer in one pass — a GEMM per Dense layer, one
// fused conv+bias+ReLU kernel per row for the ConvFront — instead of
// len(batch) single-sample passes. It serves two callers: the serving-side
// inference engine (policy.RL, the agent server) and the batched training
// path (rl's A3C workers), which follows it with BackwardBatch (backward.go).
// The single-sample Forward/Backward remains the reference implementation the
// equivalence tests compare against.
//
// To support the gradient pass, each layer retains what BackwardBatch needs:
// Dense and ReLU keep a pointer to the input batch; ConvFront keeps a
// pointer to its input batch (the gradient pass re-reads the conv windows
// from it) and its own output (the ReLU mask). A retained input is a
// pointer into the previous layer's output buffer — or, for the first
// layer, the caller's matrix — so BackwardBatch must run before that
// buffer is next overwritten.
//
// Exactness: every kernel accumulates each output element in the same
// floating-point order as the single-sample Forward (bias seed, then the
// shared dimension in index order — see mat's GEMM contract), so batched
// outputs are bitwise identical to per-sample outputs. Downstream argmax
// tier decisions therefore match exactly, not just approximately.
//
// Buffer ownership mirrors Forward: the returned matrix is owned by the
// layer and overwritten by its next ForwardBatch call. Scratch buffers grow
// to the largest batch seen and are reused, so steady-state batched
// inference performs no allocations.
//
// workers bounds the intra-GEMM parallel fan-out: pass 1 (serial) when the
// caller already parallelizes across batches — e.g. the chunked stepper in
// policy.RL — and <= 0 for the default when a single large batch should use
// every core, e.g. the agent server planning all tracked files at once.

// packMinRows is the batch size below which Dense skips repacking its
// weights into the SIMD kernel layout. Packing copies the full O(Out·In)
// weight block on every call (weights change between training updates, so
// packs cannot be cached) and only amortizes once enough batch rows reuse
// the packed tiles; short training rollouts (NSteps rows) run on the
// unpacked kernels instead, which stream the weights once and are bitwise
// identical by the same accumulation-order contract.
const packMinRows = 16

// parMinFloats is the per-call element traffic below which the batched
// layers' row loops (fused conv rows, elementwise activation, bias
// reduction, conv gradients) stay serial even when workers > 1: under ~16k
// floats the goroutine fan-out costs more than the copy it shards.
const parMinFloats = 1 << 14

// parRows reports whether n independent work items (sample rows, filters,
// output neurons) carrying floatsPerItem floats each are worth sharding over
// workers. Call sites branch on it and build the par.ForChunked closure only
// on the parallel side, so the serial (workers=1) hot path stays literally
// allocation-free — a func literal handed to ForChunked escapes to the heap
// even when the branch is never taken. Sharded items must write disjoint
// outputs, and each item's own accumulation order is untouched, so results
// are bitwise identical at any worker count.
func parRows(n, floatsPerItem, workers int) bool {
	return workers != 1 && n*floatsPerItem >= parMinFloats
}

// ForwardBatch implements the batched pass for Dense: Y = X·Wᵀ + b, one
// fused GEMM over the whole batch. For batches of at least packMinRows the
// weights are repacked into the SIMD kernel's tile layout (a small,
// allocation-free fraction of the GEMM cost at serving batch sizes), so
// weight mutations between calls are always picked up; smaller batches use
// the unpacked kernel directly.
func (d *Dense) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batch input %d, want %d", x.Cols, d.In))
	}
	d.bx = x
	if d.wView == nil {
		d.wView = &mat.Matrix{Rows: d.Out, Cols: d.In}
	}
	d.wView.Data = d.w.Value
	if x.Rows < packMinRows {
		d.by, d.bxt = mat.MulTransBBiasXTTo(d.by, d.bxt, x, d.wView, d.b.Value, workers)
		return d.by
	}
	d.by, d.wpack = mat.GemmParallel(d.by, x, d.wView, d.b.Value, d.wpack, workers)
	return d.by
}

// ForwardBatch implements the batched pass for ConvFront: one fused kernel
// per sample row (mat.ConvReLURow) reads the conv windows straight from the
// input row, seeds each 16-filter tile with the bias, rectifies in the
// epilogue and writes every value into its channel-major slot of the output
// row the next Dense reads; the tail features are then copied in behind
// it. There is no im2col, layout-restore, activation or concatenation pass.
// The filter bank is repacked on every call (a Filters×Kernel copy), so
// weight updates between calls are always picked up.
func (c *ConvFront) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	if x.Cols < c.Head {
		panic(fmt.Sprintf("nn: ConvFront batch input %d shorter than head %d", x.Cols, c.Head))
	}
	c.bx = x
	if c.wView == nil {
		c.wView = &mat.Matrix{Rows: c.conv.Filters, Cols: c.conv.Kernel}
	}
	c.wView.Data = c.conv.w.Value
	c.wpack = mat.PackTransBTo(c.wpack, c.wView)
	n := c.conv.OutDim(c.Head)
	c.by = mat.EnsureShape(c.by, x.Rows, n+x.Cols-c.Head)
	if parRows(x.Rows, n*c.conv.Kernel, workers) {
		par.ForChunked(x.Rows, workers, func(lo, hi int) { c.forwardRows(x, n, lo, hi) })
	} else {
		c.forwardRows(x, n, 0, x.Rows)
	}
	return c.by
}

// forwardRows fills output rows [lo, hi): the fused conv+bias+ReLU head,
// then the passed-through tail; rows write disjoint output rows.
//
//minicost:hotpath
func (c *ConvFront) forwardRows(x *mat.Matrix, n, lo, hi int) {
	for r := lo; r < hi; r++ {
		xrow := x.Row(r)
		yrow := c.by.Row(r)
		mat.ConvReLURow(yrow[:n], xrow[:c.Head], c.wpack, c.conv.b.Value, c.conv.Stride)
		copy(yrow[n:], xrow[c.Head:])
	}
}

// ForwardBatch implements the batched pass for ReLU (elementwise; the
// retained input batch doubles as the mask for BackwardBatch).
func (r *ReLU) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	r.bx = x
	r.by = mat.EnsureShape(r.by, x.Rows, x.Cols)
	if parRows(len(x.Data), 1, workers) {
		par.ForChunked(len(x.Data), workers, func(lo, hi int) { r.forwardSpan(x, lo, hi) })
	} else {
		r.forwardSpan(x, 0, len(x.Data))
	}
	return r.by
}

// forwardSpan applies the rectifier to elements [lo, hi).
//
//minicost:hotpath
func (r *ReLU) forwardSpan(x *mat.Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := x.Data[i]; v > 0 {
			r.by.Data[i] = v
		} else {
			r.by.Data[i] = 0
		}
	}
}

// ForwardBatch runs the stack on a batch of samples (one per row). The
// result is owned by the network's last layer and overwritten by the next
// call; see the file comment for the workers convention.
func (n *Network) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	for _, l := range n.layers {
		x = l.ForwardBatch(x, workers)
	}
	return x
}
