package nn

import (
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

func randomBatch(r *rng.RNG, rows, cols int) *mat.Matrix {
	x := mat.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.NormalMS(0, 1)
	}
	return x
}

// assertBatchMatchesSingle checks that ForwardBatch on x is bitwise
// identical to Forward row by row.
func assertBatchMatchesSingle(t *testing.T, name string, l Layer, x *mat.Matrix, workers int) {
	t.Helper()
	y := l.ForwardBatch(x, workers)
	for r := 0; r < x.Rows; r++ {
		// Forward overwrites the batch layers' single-sample buffers, not the
		// batched ones, so interleaving is safe; copy anyway for clarity.
		want := append([]float64(nil), l.Forward(x.Row(r))...)
		got := y.Row(r)
		if len(got) != len(want) {
			t.Fatalf("%s: batch row %d len %d, single %d", name, r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: batch row %d elem %d = %v, single-sample = %v (not bitwise equal)",
					name, r, i, got[i], want[i])
			}
		}
	}
}

func TestDenseForwardBatchBitwise(t *testing.T) {
	r := rng.New(1)
	for _, sh := range []struct{ in, out, batch int }{{3, 2, 1}, {33, 17, 5}, {159, 128, 64}} {
		d := NewDense(r, sh.in, sh.out)
		for _, workers := range []int{1, 0} {
			assertBatchMatchesSingle(t, "Dense", d, randomBatch(r, sh.batch, sh.in), workers)
		}
	}
}

// frontShapes cover the conv front-end with and without a pass-through
// tail, ragged filter tiles (3, 20, 33), the paper's width, strides 1 and 2
// and kernels 3-5.
var frontShapes = []struct{ head, filters, kernel, stride, tail, batch int }{
	{8, 3, 4, 1, 0, 1}, {28, 128, 4, 1, 6, 33}, {14, 16, 4, 2, 0, 7},
	{14, 20, 3, 1, 6, 11}, {13, 33, 5, 2, 2, 9},
}

// TestConv1DForwardBatchBitwise pins the fused conv front-end's batched
// pass to its single-sample Conv1D→ReLU composition.
func TestConv1DForwardBatchBitwise(t *testing.T) {
	r := rng.New(2)
	for _, sh := range frontShapes {
		c := NewConvFront(r, sh.head, sh.filters, sh.kernel, sh.stride)
		for _, workers := range []int{1, 0} {
			assertBatchMatchesSingle(t, "ConvFront", c, randomBatch(r, sh.batch, sh.head+sh.tail), workers)
		}
	}
}

func TestReLUForwardBatchBitwise(t *testing.T) {
	r := rng.New(3)
	assertBatchMatchesSingle(t, "ReLU", NewReLU(), randomBatch(r, 9, 21), 1)
}

func TestNetworkForwardBatchBitwise(t *testing.T) {
	r := rng.New(4)
	head := 28
	front := NewConvFront(r, head, 32, 4, 1)
	n := NewNetwork(
		front,
		NewDense(r, front.OutDim(head+6), 64),
		NewReLU(),
		NewDense(r, 64, 3),
	)
	x := randomBatch(r, 57, head+6)
	y := n.ForwardBatch(x, 1)
	for row := 0; row < x.Rows; row++ {
		want := append([]float64(nil), n.Forward(x.Row(row))...)
		for i := range want {
			if y.Row(row)[i] != want[i] {
				t.Fatalf("Network: row %d elem %d batch %v != single %v", row, i, y.Row(row)[i], want[i])
			}
		}
	}
	// Ragged re-use: a smaller batch after a larger one must still match.
	x2 := randomBatch(r, 3, head+6)
	y2 := n.ForwardBatch(x2, 1)
	for row := 0; row < x2.Rows; row++ {
		want := append([]float64(nil), n.Forward(x2.Row(row))...)
		for i := range want {
			if y2.Row(row)[i] != want[i] {
				t.Fatalf("Network (shrunk batch): row %d elem %d mismatch", row, i)
			}
		}
	}
}

func TestNetworkForwardBatchSteadyStateAllocFree(t *testing.T) {
	r := rng.New(5)
	head := 14
	front := NewConvFront(r, head, 16, 4, 1)
	n := NewNetwork(
		front,
		NewDense(r, front.OutDim(head+6), 32),
		NewReLU(),
		NewDense(r, 32, 3),
	)
	x := randomBatch(r, 64, head+6)
	n.ForwardBatch(x, 1) // warm the scratch buffers
	allocs := testing.AllocsPerRun(10, func() { n.ForwardBatch(x, 1) })
	if allocs != 0 {
		t.Fatalf("steady-state ForwardBatch allocates %.0f times per call, want 0", allocs)
	}
}
