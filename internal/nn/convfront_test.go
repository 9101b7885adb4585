package nn

import (
	"math"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// frontEdgeValues are inputs on which a fused rectifier or mask can drift
// from the reference: signed zeros, NaN, infinities and subnormals.
var frontEdgeValues = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.5e-310}

// unfusedFront is the oracle composition the fused front-end replaced:
// Conv1D then ReLU over the head, the tail concatenated after them (the
// single-sample Split(Network(Conv1D, ReLU)) math).
type unfusedFront struct {
	head int
	conv *Conv1D
	relu *ReLU
}

func (u *unfusedFront) forward(x []float64) []float64 {
	h := u.relu.Forward(u.conv.Forward(x[:u.head]))
	return append(append([]float64(nil), h...), x[u.head:]...)
}

func (u *unfusedFront) backward(dy []float64) []float64 {
	n := u.conv.OutDim(u.head)
	dHead := u.conv.Backward(u.relu.Backward(dy[:n]))
	return append(append([]float64(nil), dHead...), dy[n:]...)
}

// TestConvFrontEdgeValuesMatchUnfusedBitwise feeds the fused front-end rows
// holding ±0, NaN, ±Inf and subnormals, and output gradients holding ±0
// and subnormals. Some filters get a ±0 bias (the -0 ones with all-negative
// weights, so the all-+0 row puts their conv output exactly on -0, which
// the rectifier must store as +0), and one filter an infinite weight (a
// skipped zero gradient would otherwise add 0·Inf = NaN to the input
// gradient; with finite weights that skip is unobservable). The batched forward output, the
// input gradient and the parameter gradients must equal the unfused
// composition bitwise: this pins the rectifier's NaN/-0 handling, the mask
// derived from the retained output (y > 0) and the reference's `g == 0`
// skip.
func TestConvFrontEdgeValuesMatchUnfusedBitwise(t *testing.T) {
	for _, sh := range []struct{ head, filters, kernel, stride, tail int }{
		{14, 20, 4, 1, 6}, {13, 33, 3, 2, 2}, {14, 16, 5, 1, 0},
	} {
		r := rng.New(77)
		fused := NewConvFront(rng.New(78), sh.head, sh.filters, sh.kernel, sh.stride)
		ref := &unfusedFront{head: sh.head, conv: NewConv1D(rng.New(78), sh.head, sh.filters, sh.kernel, sh.stride), relu: NewReLU()}
		for i, f := range []int{0, 1, sh.filters - 2, sh.filters - 1} {
			v := 0.0
			if i%2 == 1 {
				v = math.Copysign(0, -1)
			}
			fused.Params()[1].Value[f] = v
			ref.conv.Params()[1].Value[f] = v
			if i%2 == 1 {
				for k := f * sh.kernel; k < (f+1)*sh.kernel; k++ {
					w := -math.Abs(ref.conv.Params()[0].Value[k])
					fused.Params()[0].Value[k] = w
					ref.conv.Params()[0].Value[k] = w
				}
			}
		}
		fused.Params()[0].Value[2*sh.kernel] = math.Inf(1)
		ref.conv.Params()[0].Value[2*sh.kernel] = math.Inf(1)

		const rows = 12
		in := sh.head + sh.tail
		x := mat.New(rows, in)
		for i := range x.Data {
			switch row := i / in; {
			case row == 0: // all +0: conv output is exactly the bias
			case row == 1:
				x.Data[i] = math.Copysign(0, -1)
			case r.Float64() < 0.3:
				x.Data[i] = frontEdgeValues[r.Intn(len(frontEdgeValues))]
			default:
				x.Data[i] = r.NormalMS(0, 1)
			}
		}
		out := fused.OutDim(in)
		dy := mat.New(rows, out)
		for i := range dy.Data {
			switch u := r.Float64(); {
			case u < 0.2:
				dy.Data[i] = 0
			case u < 0.3:
				dy.Data[i] = math.Copysign(0, -1)
			case u < 0.35:
				dy.Data[i] = 5e-324
			default:
				dy.Data[i] = r.NormalMS(0, 1)
			}
		}

		y := fused.ForwardBatch(x, 1)
		dx := fused.BackwardBatch(dy, 1)
		for row := 0; row < rows; row++ {
			want := ref.forward(x.Row(row))
			assertSameBits(t, "forward", sh, row, y.Row(row), want)
			wantDx := ref.backward(dy.Row(row))
			assertSameBits(t, "input gradient", sh, row, dx.Row(row), wantDx)
		}
		for pi, p := range ref.conv.Params() {
			assertSameBits(t, "parameter gradient", sh, pi, fused.Params()[pi].Grad, p.Grad)
		}
	}
}

func assertSameBits(t *testing.T, what string, sh any, row int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%+v %s %d: len %d, want %d", sh, what, row, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%+v %s %d elem %d = %v, unfused %v (not bitwise equal)", sh, what, row, i, got[i], want[i])
		}
	}
}
