package nn

import (
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// refGrads runs the single-sample reference over the batch in row order —
// Forward then Backward per row — and returns the resulting flat gradient
// vector plus the per-row input gradients.
func refGrads(net *Network, x, dy *mat.Matrix) ([]float64, *mat.Matrix) {
	dx := mat.New(dy.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		net.Forward(x.Row(r))
		copy(dx.Row(r), net.Backward(dy.Row(r)))
	}
	return net.GradVector(), dx
}

// assertBackwardBatchMatchesSingle checks that ForwardBatch + BackwardBatch
// accumulates bitwise-identical parameter gradients and input gradients to
// the per-sample reference, including on top of pre-existing gradients.
func assertBackwardBatchMatchesSingle(t *testing.T, name string, build func() (*Network, *Network), x, dy *mat.Matrix, workers int) {
	t.Helper()
	batched, single := build()
	// Seed both gradient accumulators with a shared nonzero state so the
	// accumulate-in-place contract is exercised, not just the zero case.
	seed := rng.New(99)
	for pi, p := range single.Params() {
		bp := batched.Params()[pi]
		for i := range p.Grad {
			g := seed.NormalMS(0, 0.1)
			p.Grad[i] = g
			bp.Grad[i] = g
		}
	}
	wantGrad, wantDx := refGrads(single, x, dy)

	batched.ForwardBatch(x, workers)
	gotDx := batched.BackwardBatch(dy, workers)
	gotGrad := batched.GradVector()

	for i := range wantGrad {
		if gotGrad[i] != wantGrad[i] {
			t.Fatalf("%s: grad elem %d = %v, single-sample = %v (not bitwise equal)",
				name, i, gotGrad[i], wantGrad[i])
		}
	}
	for i := range wantDx.Data {
		if gotDx.Data[i] != wantDx.Data[i] {
			t.Fatalf("%s: input-grad elem %d = %v, single-sample = %v (not bitwise equal)",
				name, i, gotDx.Data[i], wantDx.Data[i])
		}
	}
}

// sparseGrad zeroes a fraction of dy's entries so the conv front-end's
// zero-gradient skip path is exercised the way training exercises it (zero
// rewards ⇒ zero critic gradients for whole timesteps).
func sparseGrad(r *rng.RNG, rows, cols int) *mat.Matrix {
	dy := randomBatch(r, rows, cols)
	for i := range dy.Data {
		if r.Float64() < 0.3 {
			dy.Data[i] = 0
		}
	}
	return dy
}

func TestDenseBackwardBatchBitwise(t *testing.T) {
	r := rng.New(21)
	for _, sh := range []struct{ in, out, batch int }{{3, 2, 1}, {33, 17, 5}, {159, 128, 64}} {
		for _, workers := range []int{1, 0} {
			x := randomBatch(r, sh.batch, sh.in)
			dy := randomBatch(r, sh.batch, sh.out)
			assertBackwardBatchMatchesSingle(t, "Dense", func() (*Network, *Network) {
				seed := rng.New(31)
				return NewNetwork(NewDense(seed, sh.in, sh.out)), NewNetwork(NewDense(rng.New(31), sh.in, sh.out))
			}, x, dy, workers)
		}
	}
}

// TestConv1DBackwardBatchBitwise pins the fused conv front-end's batched
// gradient pass (windows and mask read from the retained forward state) to
// its single-sample Conv1D→ReLU composition, with and without a tail.
func TestConv1DBackwardBatchBitwise(t *testing.T) {
	r := rng.New(22)
	for _, sh := range frontShapes {
		mk := func() *Network {
			return NewNetwork(NewConvFront(rng.New(32), sh.head, sh.filters, sh.kernel, sh.stride))
		}
		in := sh.head + sh.tail
		for _, workers := range []int{1, 0} {
			x := randomBatch(r, sh.batch, in)
			dy := sparseGrad(r, sh.batch, mk().OutDim(in))
			assertBackwardBatchMatchesSingle(t, "ConvFront", func() (*Network, *Network) { return mk(), mk() }, x, dy, workers)
		}
	}
}

func TestReLUBackwardBatchBitwise(t *testing.T) {
	r := rng.New(23)
	assertBackwardBatchMatchesSingle(t, "ReLU", func() (*Network, *Network) {
		return NewNetwork(NewReLU()), NewNetwork(NewReLU())
	}, randomBatch(r, 9, 21), randomBatch(r, 9, 21), 1)
}

// TestNetworkBackwardBatchBitwise runs the full MiniCost-shaped stack
// (ConvFront → Dense → ReLU → Dense) through the batched gradient pass and
// pins bitwise equality to the per-sample reference.
func TestNetworkBackwardBatchBitwise(t *testing.T) {
	r := rng.New(24)
	head := 28
	mk := func() *Network {
		seed := rng.New(34)
		front := NewConvFront(seed, head, 32, 4, 1)
		return NewNetwork(
			front,
			NewDense(seed, front.OutDim(head+6), 64),
			NewReLU(),
			NewDense(seed, 64, 3),
		)
	}
	outDim := mk().OutDim(head + 6)
	for _, workers := range []int{1, 0} {
		x := randomBatch(r, 57, head+6)
		dy := sparseGrad(r, 57, outDim)
		assertBackwardBatchMatchesSingle(t, "Network", func() (*Network, *Network) { return mk(), mk() }, x, dy, workers)
	}
}

// TestBackwardBatchAccumulatesAcrossBatches checks that two consecutive
// ForwardBatch/BackwardBatch rounds accumulate gradients identically to the
// per-sample reference over both batches in sequence — the exact shape of an
// A3C update that backprops actor and critic losses without ZeroGrad between
// rollout rows.
func TestBackwardBatchAccumulatesAcrossBatches(t *testing.T) {
	r := rng.New(25)
	mk := func() *Network {
		seed := rng.New(35)
		return NewNetwork(NewDense(seed, 12, 8), NewReLU(), NewDense(seed, 8, 4))
	}
	batched, single := mk(), mk()
	x1, dy1 := randomBatch(r, 7, 12), randomBatch(r, 7, 4)
	x2, dy2 := randomBatch(r, 5, 12), sparseGrad(r, 5, 4)

	refGrads(single, x1, dy1)
	wantGrad, _ := refGrads(single, x2, dy2)

	batched.ForwardBatch(x1, 1)
	batched.BackwardBatch(dy1, 1)
	batched.ForwardBatch(x2, 1)
	batched.BackwardBatch(dy2, 1)
	gotGrad := batched.GradVector()

	for i := range wantGrad {
		if gotGrad[i] != wantGrad[i] {
			t.Fatalf("grad elem %d = %v, want %v after two batches", i, gotGrad[i], wantGrad[i])
		}
	}
}

// TestBackwardBatchSteadyStateAllocFree pins the buffer-reuse contract: after
// warm-up, repeated same-shape ForwardBatch+BackwardBatch rounds allocate
// nothing — for the agent-shaped stack and for a bare front-end with ragged
// filter tiles, stride 2 and a pass-through tail.
func TestBackwardBatchSteadyStateAllocFree(t *testing.T) {
	r := rng.New(26)
	seed := rng.New(36)
	front := NewConvFront(seed, 14, 16, 4, 1)
	for _, c := range []struct {
		name   string
		net    *Network
		in, dy int
	}{
		{"agent stack", NewNetwork(front, NewDense(seed, front.OutDim(19), 32), NewReLU(), NewDense(seed, 32, 3)), 19, 3},
		{"ragged front-end", NewNetwork(NewConvFront(seed, 13, 33, 5, 2)), 15, 33*5 + 2},
	} {
		x := randomBatch(r, 21, c.in)
		dy := randomBatch(r, 21, c.dy)
		c.net.ForwardBatch(x, 1)
		c.net.BackwardBatch(dy, 1)
		allocs := testing.AllocsPerRun(10, func() {
			c.net.ForwardBatch(x, 1)
			c.net.BackwardBatch(dy, 1)
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state batched train pass allocates %v times per round, want 0", c.name, allocs)
		}
	}
}
