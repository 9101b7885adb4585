// Package nn is the from-scratch neural-network substrate behind MiniCost's
// A3C agent (§6.1 of the paper: a Conv1D front-end of 128 filters, size 4,
// stride 1, feeding a 128-neuron hidden layer; here parameterizable so
// Fig. 11's width sweep can run).
//
// The design is deliberately minimal: single-sample forward/backward (A3C
// applies n-step updates sample by sample), float64 everywhere, layers
// exposing flat parameter/gradient vectors so the RL package can host a
// locked global parameter server and copy weights into per-worker replicas.
package nn

import (
	"fmt"
	"math"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// Param is one layer's parameter block with its gradient accumulator.
type Param struct {
	Value []float64
	Grad  []float64
}

// Layer is a differentiable module. Forward must cache whatever Backward
// needs; Backward consumes the gradient w.r.t. its output, accumulates
// parameter gradients, and returns the gradient w.r.t. its input.
//
// Buffer ownership: the slices Forward and Backward return — and the
// matrices ForwardBatch and BackwardBatch return — are owned by the layer
// and overwritten by its next call of the same method; copy them if they
// must outlive that. This keeps the single-sample training loop, steady-
// state batched inference and the batched training path allocation-free,
// which the A3C workers and the serving path depend on.
//
// ForwardBatch (batch.go) must produce outputs bitwise identical to
// row-by-row Forward calls. It retains the input batch (a pointer, not a
// copy) so BackwardBatch (backward.go) can differentiate it; BackwardBatch
// must follow the ForwardBatch whose activations it consumes and must
// accumulate parameter gradients bitwise identically to calling Forward and
// Backward once per row, in row order.
type Layer interface {
	Forward(x []float64) []float64
	ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix
	Backward(dy []float64) []float64
	BackwardBatch(dy *mat.Matrix, workers int) *mat.Matrix
	Params() []*Param
	OutDim(inDim int) int
	clone() Layer
}

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	In, Out int
	w, b    Param
	x       []float64 // cached input
	y, dx   []float64 // reused output/input-gradient buffers

	by    *mat.Matrix       // reused batched output
	bxt   *mat.Matrix       // reused lane-transposed scratch for short batches
	wView *mat.Matrix       // lazily built view of w.Value as an Out×In matrix
	wpack *mat.PackedTransB // reused kernel-layout copy of the weights

	bx       *mat.Matrix       // input batch retained by ForwardBatch for BackwardBatch
	dyT, bdx *mat.Matrix       // reused gradient-pass scratch/output buffers
	gView    *mat.Matrix       // lazily built view of w.Grad as an Out×In matrix
	wtpack   *mat.PackedTransB // reused transposed-weight pack for the dX GEMM
	xpack    *mat.PackedTransB // reused input-batch pack for the dW GEMM
}

// NewDense constructs a Dense layer with Xavier/Glorot uniform init.
func NewDense(r *rng.RNG, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense %dx%d", in, out))
	}
	d := &Dense{In: in, Out: out}
	d.w = Param{Value: make([]float64, out*in), Grad: make([]float64, out*in)}
	d.b = Param{Value: make([]float64, out), Grad: make([]float64, out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.w.Value {
		d.w.Value[i] = (2*r.Float64() - 1) * limit
	}
	return d
}

// Forward computes W·x + b.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", len(x), d.In))
	}
	d.x = x
	if d.y == nil {
		d.y = make([]float64, d.Out)
	}
	y := d.y
	for o := 0; o < d.Out; o++ {
		row := d.w.Value[o*d.In : (o+1)*d.In]
		s := d.b.Value[o]
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
	return y
}

// Backward accumulates dW = dy·xᵀ, db = dy and returns Wᵀ·dy.
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.Out {
		panic("nn: Dense Backward dim mismatch")
	}
	if d.dx == nil {
		d.dx = make([]float64, d.In)
	}
	dx := d.dx
	for i := range dx {
		dx[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		d.b.Grad[o] += g
		row := d.w.Value[o*d.In : (o+1)*d.In]
		grow := d.w.Grad[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += g * d.x[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params returns the weight and bias blocks.
func (d *Dense) Params() []*Param { return []*Param{&d.w, &d.b} }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.Out }

func (d *Dense) clone() Layer {
	c := &Dense{In: d.In, Out: d.Out}
	c.w = cloneParam(d.w)
	c.b = cloneParam(d.b)
	return c
}

// Conv1D is a one-dimensional convolution over a single input channel with
// Filters output channels, kernel size Kernel and stride Stride. The output
// is flattened channel-major: out[f*outLen+t]. Its Forward/Backward are the
// single-sample reference math; networks run it inside ConvFront, whose
// batched pass fuses the convolution with the rectifier.
type Conv1D struct {
	InLen, Filters, Kernel, Stride int
	w, b                           Param // w[f*Kernel+k], b[f]
	x                              []float64
	y, dx                          []float64 // reused buffers
}

// NewConv1D constructs the layer; the paper's setting is Filters=128,
// Kernel=4, Stride=1.
func NewConv1D(r *rng.RNG, inLen, filters, kernel, stride int) *Conv1D {
	if inLen <= 0 || filters <= 0 || kernel <= 0 || stride <= 0 || kernel > inLen {
		panic(fmt.Sprintf("nn: invalid Conv1D inLen=%d filters=%d kernel=%d stride=%d", inLen, filters, kernel, stride))
	}
	c := &Conv1D{InLen: inLen, Filters: filters, Kernel: kernel, Stride: stride}
	c.w = Param{Value: make([]float64, filters*kernel), Grad: make([]float64, filters*kernel)}
	c.b = Param{Value: make([]float64, filters), Grad: make([]float64, filters)}
	limit := math.Sqrt(6.0 / float64(kernel+filters))
	for i := range c.w.Value {
		c.w.Value[i] = (2*r.Float64() - 1) * limit
	}
	return c
}

// outLen returns the number of output positions per filter.
func (c *Conv1D) outLen() int { return (c.InLen-c.Kernel)/c.Stride + 1 }

// Forward computes the cross-correlation of x with every filter.
func (c *Conv1D) Forward(x []float64) []float64 {
	if len(x) != c.InLen {
		panic(fmt.Sprintf("nn: Conv1D input %d, want %d", len(x), c.InLen))
	}
	c.x = x
	ol := c.outLen()
	if c.y == nil {
		c.y = make([]float64, c.Filters*ol)
	}
	y := c.y
	for f := 0; f < c.Filters; f++ {
		w := c.w.Value[f*c.Kernel : (f+1)*c.Kernel]
		bias := c.b.Value[f]
		for t := 0; t < ol; t++ {
			s := bias
			base := t * c.Stride
			for k := 0; k < c.Kernel; k++ {
				s += w[k] * x[base+k]
			}
			y[f*ol+t] = s
		}
	}
	return y
}

// Backward accumulates filter gradients and returns the input gradient.
func (c *Conv1D) Backward(dy []float64) []float64 {
	ol := c.outLen()
	if len(dy) != c.Filters*ol {
		panic("nn: Conv1D Backward dim mismatch")
	}
	if c.dx == nil {
		c.dx = make([]float64, c.InLen)
	}
	dx := c.dx
	for i := range dx {
		dx[i] = 0
	}
	for f := 0; f < c.Filters; f++ {
		w := c.w.Value[f*c.Kernel : (f+1)*c.Kernel]
		gw := c.w.Grad[f*c.Kernel : (f+1)*c.Kernel]
		for t := 0; t < ol; t++ {
			g := dy[f*ol+t]
			if g == 0 {
				continue
			}
			c.b.Grad[f] += g
			base := t * c.Stride
			for k := 0; k < c.Kernel; k++ {
				gw[k] += g * c.x[base+k]
				dx[base+k] += g * w[k]
			}
		}
	}
	return dx
}

// Params returns the filter and bias blocks.
func (c *Conv1D) Params() []*Param { return []*Param{&c.w, &c.b} }

// OutDim returns the flattened output length Filters·outLen.
func (c *Conv1D) OutDim(int) int { return c.Filters * c.outLen() }

func (c *Conv1D) clone() *Conv1D {
	cc := &Conv1D{InLen: c.InLen, Filters: c.Filters, Kernel: c.Kernel, Stride: c.Stride}
	cc.w = cloneParam(c.w)
	cc.b = cloneParam(c.b)
	return cc
}

// ReLU is max(0, x).
type ReLU struct {
	mask  []bool
	y, dx []float64   // reused buffers
	by    *mat.Matrix // reused batched output
	bx    *mat.Matrix // input batch retained by ForwardBatch for BackwardBatch
	bdx   *mat.Matrix // reused batched input-gradient buffer
}

// NewReLU returns a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x []float64) []float64 {
	if len(r.y) != len(x) {
		r.y = make([]float64, len(x))
		r.mask = make([]bool, len(x))
	}
	y := r.y
	for i, v := range x {
		if v > 0 {
			y[i] = v
			r.mask[i] = true
		} else {
			y[i] = 0
			r.mask[i] = false
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy []float64) []float64 {
	if len(r.dx) != len(dy) {
		r.dx = make([]float64, len(dy))
	}
	dx := r.dx
	for i, g := range dy {
		if r.mask[i] {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// Params implements Layer (none).
func (r *ReLU) Params() []*Param { return nil }

// OutDim implements Layer.
func (r *ReLU) OutDim(in int) int { return in }

func (r *ReLU) clone() Layer { return &ReLU{} }

// ConvFront is the agent's conv front-end: a Conv1D over the first Head
// inputs (the request-frequency history) followed by ReLU, with the
// remaining inputs (size, tier one-hot, write stats) passed through and
// concatenated after the rectified conv output — the paper's "results from
// these layers are then aggregated with other inputs". Its single-sample
// Forward/Backward compose the Conv1D and ReLU reference math; its batched
// pass (batch.go, backward.go) is one fused kernel per sample row. Params
// are the conv's (filters, then biases), drawn from the rng exactly as
// NewConv1D draws them.
type ConvFront struct {
	Head  int
	conv  *Conv1D
	relu  ReLU
	y, dx []float64 // reused single-sample buffers

	wView *mat.Matrix       // lazily built view of the filters as Filters×Kernel
	wpack *mat.PackedTransB // reused kernel-layout copy of the filter bank
	bx    *mat.Matrix       // input batch retained by ForwardBatch for BackwardBatch
	by    *mat.Matrix       // reused batched output, also BackwardBatch's ReLU mask
	bdx   *mat.Matrix       // reused batched input-gradient buffer
}

// NewConvFront builds the front-end over the first head inputs; the
// paper's setting is 128 filters of size 4 with stride 1.
func NewConvFront(r *rng.RNG, head, filters, kernel, stride int) *ConvFront {
	return &ConvFront{Head: head, conv: NewConv1D(r, head, filters, kernel, stride)}
}

// Forward implements Layer.
func (c *ConvFront) Forward(x []float64) []float64 {
	if len(x) < c.Head {
		panic(fmt.Sprintf("nn: ConvFront input %d shorter than head %d", len(x), c.Head))
	}
	h := c.relu.Forward(c.conv.Forward(x[:c.Head]))
	if len(c.y) != len(h)+len(x)-c.Head {
		c.y = make([]float64, len(h)+len(x)-c.Head)
	}
	copy(c.y, h)
	copy(c.y[len(h):], x[c.Head:])
	return c.y
}

// Backward implements Layer.
func (c *ConvFront) Backward(dy []float64) []float64 {
	n := c.conv.OutDim(c.Head)
	if len(dy) < n {
		panic("nn: ConvFront Backward gradient shorter than conv output")
	}
	dHead := c.conv.Backward(c.relu.Backward(dy[:n]))
	if len(c.dx) != c.Head+len(dy)-n {
		c.dx = make([]float64, c.Head+len(dy)-n)
	}
	copy(c.dx, dHead)
	copy(c.dx[c.Head:], dy[n:])
	return c.dx
}

// Params implements Layer.
func (c *ConvFront) Params() []*Param { return c.conv.Params() }

// OutDim implements Layer.
func (c *ConvFront) OutDim(in int) int { return c.conv.OutDim(c.Head) + in - c.Head }

func (c *ConvFront) clone() Layer { return &ConvFront{Head: c.Head, conv: c.conv.clone()} }

func cloneParam(p Param) Param {
	return Param{
		Value: append([]float64(nil), p.Value...),
		Grad:  append([]float64(nil), p.Grad...),
	}
}
