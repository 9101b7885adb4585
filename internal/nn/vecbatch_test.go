package nn

import (
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// These tests pin the two batched-pass properties the vectorized rollout
// engine (rl/vectrain.go) leans on: a ForwardBatch over a row view into a
// larger arena (mat.SliceRows) is indistinguishable from one over an owned
// matrix, and alternating between the engine's two batch shapes — the E-row
// action-selection block and the E·NSteps-row update arena — stays
// allocation-free once the layer scratch has seen both.

func vecTestNet(r *rng.RNG, head int) *Network {
	front := NewConvFront(r, head, 16, 4, 1)
	return NewNetwork(
		front,
		NewDense(r, front.OutDim(head+6), 32),
		NewReLU(),
		NewDense(r, 32, 3),
	)
}

// TestForwardBatchOnArenaViewBitwise runs every lockstep block of a step-major
// arena through ForwardBatch as a SliceRows view and checks the outputs are
// bitwise identical both to a copied standalone batch and to the per-row
// single-sample Forward.
func TestForwardBatchOnArenaViewBitwise(t *testing.T) {
	r := rng.New(9)
	const head, envs, steps = 14, 4, 7
	n := vecTestNet(r, head)
	dim := head + 6
	arena := randomBatch(r, envs*steps, dim)
	view := &mat.Matrix{}
	for s := 0; s < steps; s++ {
		arena.SliceRows(view, s*envs, (s+1)*envs)
		copied := mat.New(envs, dim)
		copy(copied.Data, view.Data)

		got := append([]float64(nil), n.ForwardBatch(view, 1).Data...)
		want := n.ForwardBatch(copied, 1)
		for i := range want.Data {
			if got[i] != want.Data[i] {
				t.Fatalf("step %d: view elem %d = %v, copied batch %v", s, i, got[i], want.Data[i])
			}
		}
		for row := 0; row < envs; row++ {
			single := n.Forward(arena.Row(s*envs + row))
			for i, v := range single {
				if got[row*want.Cols+i] != v {
					t.Fatalf("step %d row %d elem %d: view %v, single %v", s, row, i, got[row*want.Cols+i], v)
				}
			}
		}
	}
}

// TestForwardBatchAlternatingShapesAllocFree drives the exact shape cadence
// of one vectorized rollout — NSteps small action-selection batches, then
// one E·NSteps update batch (forward + backward) — and requires the steady
// state to allocate nothing: layer scratch must grow to the largest shape
// and then serve both without reallocation.
func TestForwardBatchAlternatingShapesAllocFree(t *testing.T) {
	r := rng.New(10)
	const head, envs, steps = 14, 4, 7
	n := vecTestNet(r, head)
	n.FlattenGrads()
	dim := head + 6
	arena := randomBatch(r, envs*steps, dim)
	dy := mat.New(envs*steps, 3)
	for i := range dy.Data {
		dy.Data[i] = r.NormalMS(0, 0.1)
	}
	view := &mat.Matrix{}
	rollout := func() {
		for s := 0; s < steps; s++ {
			arena.SliceRows(view, s*envs, (s+1)*envs)
			n.ForwardBatch(view, 1)
		}
		n.ZeroGrad()
		n.ForwardBatch(arena, 1)
		n.BackwardBatch(dy, 1)
	}
	rollout() // warm the scratch for both shapes
	rollout()
	if allocs := testing.AllocsPerRun(10, rollout); allocs != 0 {
		t.Fatalf("alternating-shape rollout allocates %.0f/op, want 0", allocs)
	}
}
