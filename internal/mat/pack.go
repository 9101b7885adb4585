package mat

import (
	"fmt"

	"minicost/internal/par"
)

// packLanes is the column-tile width of the packed GEMM kernel: one output
// column per SIMD lane across four 4-wide vector accumulators (see
// gemm_amd64.s). The generic fallback uses the same layout.
const packLanes = 16

// PackedTransB is a transposed-B operand (weights: row j holds output
// column j's coefficients) re-laid-out for the packed kernel: columns are
// grouped into tiles of packLanes and interleaved along k, so tile t stores
// Data[t*K*packLanes + i*packLanes + lane] = B[t*packLanes+lane][i]. Lanes
// past Cols are zero-padded, which lets every tile run the same kernel; the
// padded outputs are simply not written back.
//
// Packing exists to make the per-k loads of one tile contiguous. It never
// changes any element's accumulation order, so the exactness contract in
// gemm.go is unaffected.
type PackedTransB struct {
	Cols int // logical output columns (B rows)
	K    int // shared dimension (B cols)
	Data []float64
}

// ensurePacked sizes dst for a tiles×k packed operand with the given
// logical column count, reusing its backing storage when large enough.
func ensurePacked(dst *PackedTransB, tiles, k, cols int) *PackedTransB {
	need := tiles * k * packLanes
	if dst == nil {
		dst = &PackedTransB{}
	}
	if cap(dst.Data) >= need {
		dst.Data = dst.Data[:need]
	} else {
		dst.Data = make([]float64, need)
	}
	dst.Cols, dst.K = cols, k
	return dst
}

// PackTransBTo packs b into dst, reusing dst's backing storage when large
// enough (pass nil to allocate). The returned value must be used in place of
// dst.
func PackTransBTo(dst *PackedTransB, b *Matrix) *PackedTransB {
	return PackTransBParTo(dst, b, 1)
}

// PackTransBParTo is PackTransBTo with the packing tiles sharded over
// workers: every tile is a disjoint segment of dst's backing array, so
// workers write without contention and the layout (hence every downstream
// accumulation) is identical at any worker count. Small operands pack
// serially regardless of workers.
func PackTransBParTo(dst *PackedTransB, b *Matrix, workers int) *PackedTransB {
	tiles := (b.Rows + packLanes - 1) / packLanes
	dst = ensurePacked(dst, tiles, b.Cols, b.Rows)
	if workers == 1 || len(dst.Data) < packParMin {
		for t := 0; t < tiles; t++ {
			packTransBTile(dst, b, t)
		}
		return dst
	}
	par.ForBatched(tiles, 1, workers, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			packTransBTile(dst, b, t)
		}
	})
	return dst
}

// packTransBTile fills tile t of the packed operand from b's rows.
func packTransBTile(dst *PackedTransB, b *Matrix, t int) {
	k := b.Cols
	seg := dst.Data[t*k*packLanes : (t+1)*k*packLanes]
	for lane := 0; lane < packLanes; lane++ {
		j := t*packLanes + lane
		if j >= b.Rows {
			for i := 0; i < k; i++ {
				seg[i*packLanes+lane] = 0
			}
			continue
		}
		brow := b.Data[j*k : (j+1)*k]
		for i, v := range brow {
			seg[i*packLanes+lane] = v
		}
	}
}

// PackTransposeTo packs mᵀ as a transposed-B operand without materializing
// the transpose: the packed operand's output columns are m's *columns* and
// the shared dimension is m's *rows* (Cols = m.Cols, K = m.Rows). Dense's
// batched backward uses it to run dX = dY·W on the packed kernel — W is
// stored row-per-output (Out×In), and the input-gradient product needs the
// In×Out orientation. The inner copy walks m row-major, so packing stays
// cache-friendly; the layout and zero-padding match PackTransBTo exactly.
func PackTransposeTo(dst *PackedTransB, m *Matrix) *PackedTransB {
	return PackTransposeParTo(dst, m, 1)
}

// PackTransposeParTo is PackTransposeTo with the packing tiles sharded over
// workers, under the same disjoint-tile contract as PackTransBParTo.
func PackTransposeParTo(dst *PackedTransB, m *Matrix, workers int) *PackedTransB {
	tiles := (m.Cols + packLanes - 1) / packLanes
	dst = ensurePacked(dst, tiles, m.Rows, m.Cols)
	if workers == 1 || len(dst.Data) < packParMin {
		for t := 0; t < tiles; t++ {
			packTransposeTile(dst, m, t)
		}
		return dst
	}
	par.ForBatched(tiles, 1, workers, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			packTransposeTile(dst, m, t)
		}
	})
	return dst
}

// packTransposeTile fills tile t of the packed operand from m's columns.
func packTransposeTile(dst *PackedTransB, m *Matrix, t int) {
	k := m.Rows
	seg := dst.Data[t*k*packLanes : (t+1)*k*packLanes]
	j0 := t * packLanes
	w := packLanes
	if j0+w > m.Cols {
		w = m.Cols - j0
	}
	for i := 0; i < k; i++ {
		drow := seg[i*packLanes : (i+1)*packLanes]
		copy(drow[:w], m.Data[i*m.Cols+j0:i*m.Cols+j0+w])
		for lane := w; lane < packLanes; lane++ {
			drow[lane] = 0
		}
	}
}

// MulPackTransBBiasTo is the packed-operand version of MulTransBBiasTo:
// dst[r][c] = bias[c] + Σ_k a[r][k]·B[c][k] with B pre-packed by
// PackTransBTo. It is the hot path of the batched inference engine — on
// amd64 with AVX the inner kernel runs one output column per vector lane —
// and is bitwise identical to MulTransBBiasTo and to the single-sample
// loops (each element's accumulation is still bias-seeded and k-sequential;
// see gemm.go).
func MulPackTransBBiasTo(dst, a *Matrix, pb *PackedTransB, bias []float64, workers int) *Matrix {
	if a.Cols != pb.K {
		panic(fmt.Sprintf("mat: MulPackTransB shape mismatch %dx%d · packed(%dx%d)ᵀ", a.Rows, a.Cols, pb.Cols, pb.K))
	}
	if bias != nil && len(bias) != pb.Cols {
		panic(fmt.Sprintf("mat: MulPackTransB bias len %d, want %d", len(bias), pb.Cols))
	}
	dst = EnsureShape(dst, a.Rows, pb.Cols)
	if workers == 1 || a.Rows*a.Cols*pb.Cols < gemmParallelFlops {
		mulPackBlock(dst, a, pb, bias, 0, a.Rows)
		return dst
	}
	w := resolveWorkers(workers)
	par.ForBatched(a.Rows, parPanel(a.Rows, w, gemmMinPanel), w, func(lo, hi int) {
		mulPackBlock(dst, a, pb, bias, lo, hi)
	})
	return dst
}

// packKBlock is the shared-dimension block length of the packed kernels:
// 192 k-steps of one 16-lane tile are 24 KiB, so the segment a row batch
// revisits stays L1-resident instead of re-streaming the whole 16·K tile
// from L2 once per row. Blocks run in ascending k order with the running
// sums parked in the destination row between blocks, which leaves every
// element's accumulation sequence — and therefore the bitwise contract —
// unchanged: a paused-and-resumed chain performs the identical adds.
const packKBlock = 192

// mulPackBlock fills output rows [lo, hi) from the packed operand. The
// column tile is the outer loop and the shared dimension is blocked inside
// it (see packKBlock) so the segment the A rows revisit stays cache-hot;
// the first block seeds each destination slice with the bias (or zero) and
// later blocks accumulate on top. The ragged last tile uses per-lane scalar
// dots written straight into dst (a scratch array would escape through the
// asm call and break the allocation-free steady state). Every element stays
// k-sequential.
func mulPackBlock(dst, a *Matrix, pb *PackedTransB, bias []float64, lo, hi int) {
	n, k := pb.Cols, pb.K
	full := n / packLanes * packLanes
	for j := 0; j < full; j += packLanes {
		tile := pb.Data[j*k : (j+packLanes)*k]
		for k0 := 0; k0 < k; k0 += packKBlock {
			k1 := k0 + packKBlock
			if k1 > k {
				k1 = k
			}
			seg := tile[k0*packLanes : k1*packLanes]
			for r := lo; r < hi; r++ {
				acc := dst.Data[r*n+j : r*n+j+packLanes]
				if k0 == 0 {
					if bias != nil {
						copy(acc, bias[j:j+packLanes])
					} else {
						for i := range acc {
							acc[i] = 0
						}
					}
				}
				dotPack16(a.Data[r*k+k0:r*k+k1], seg, acc)
			}
		}
	}
	if full < n {
		seg := pb.Data[full*k:]
		for r := lo; r < hi; r++ {
			arow := a.Data[r*k : (r+1)*k]
			drow := dst.Data[r*n : (r+1)*n]
			for lane := 0; full+lane < n; lane++ {
				s := 0.0
				if bias != nil {
					s = bias[full+lane]
				}
				for i, v := range arow {
					s += v * seg[i*packLanes+lane]
				}
				drow[full+lane] = s
			}
		}
	}
}

// ConvReLURow computes one sample row of the fused conv front-end,
//
//	y[f*ol+t] = max(0, bias[f] + Σ_k x[t*stride+k]·W[f][k])
//
// for every filter f and output position t, where W (filters×kernel) is
// pre-packed by PackTransBTo and ol = (len(x)-kernel)/stride + 1. Windows
// are read straight from x (no im2col gather); each 16-filter tile seeds its
// lanes with the bias, runs the packed kernel's k-sequential dot product,
// rectifies in the epilogue and stores every value in its channel-major
// slot, so the caller needs neither a layout restore nor a separate
// activation pass. Per element this is the reference Conv1D.Forward
// accumulation followed by ReLU's `v > 0 ? v : 0` (NaN and -0 become +0),
// so the result is bitwise identical to the unfused composition. The
// ragged last tile runs per-lane scalar dots over the zero-padded packed
// lanes, as in mulPackBlock. Only the first filters·ol elements of y are
// written.
//
//minicost:hotpath
func ConvReLURow(y, x []float64, pb *PackedTransB, bias []float64, stride int) {
	f, k := pb.Cols, pb.K
	if stride <= 0 || k <= 0 || k > len(x) || len(bias) != f {
		panic(fmt.Sprintf("mat: ConvReLURow input %d, kernel %d, stride %d, bias %d for %d filters", len(x), k, stride, len(bias), f))
	}
	ol := (len(x)-k)/stride + 1
	if len(y) < f*ol {
		panic(fmt.Sprintf("mat: ConvReLURow output %d, want %d", len(y), f*ol))
	}
	full := f / packLanes * packLanes
	for j := 0; j < full; j += packLanes {
		convReLUPack16(x, pb.Data[j*k:(j+packLanes)*k], bias[j:j+packLanes], y[j*ol:(j+packLanes)*ol], stride, ol)
	}
	if full < f {
		seg := pb.Data[full*k:]
		for t := 0; t < ol; t++ {
			win := x[t*stride : t*stride+k]
			for lane := 0; full+lane < f; lane++ {
				s := bias[full+lane]
				for i, v := range win {
					s += v * seg[i*packLanes+lane]
				}
				if s > 0 {
					y[(full+lane)*ol+t] = s
				} else {
					y[(full+lane)*ol+t] = 0
				}
			}
		}
	}
}

// convReLUPack16Generic is the portable tile kernel behind ConvReLURow:
// for each position t, lane j gets bias[j] + Σ_i x[t*stride+i]·bp[i*16+j]
// (sequential in i), rectified and stored at y[j*ol+t]. It backs
// convReLUPack16 on non-amd64 builds and on amd64 CPUs without AVX.
func convReLUPack16Generic(x, bp, bias, y []float64, stride, ol int) {
	k := len(bp) / packLanes
	var s [packLanes]float64
	for t := 0; t < ol; t++ {
		copy(s[:], bias)
		for i, v := range x[t*stride : t*stride+k] {
			w := bp[i*packLanes : i*packLanes+packLanes]
			for j := range s {
				s[j] += v * w[j]
			}
		}
		for j, v := range s {
			if v > 0 {
				y[j*ol+t] = v
			} else {
				y[j*ol+t] = 0
			}
		}
	}
}

// dotPack16Generic is the portable kernel: acc[lane] += Σ_i a[i]·bp[i*16+lane],
// each lane sequential in i. It backs dotPack16 on non-amd64 builds and on
// amd64 CPUs without AVX.
func dotPack16Generic(a, bp, acc []float64) {
	var s [packLanes]float64
	copy(s[:], acc)
	for i, v := range a {
		t := bp[i*packLanes : i*packLanes+packLanes]
		for j := range s {
			s[j] += v * t[j]
		}
	}
	copy(acc, s[:])
}
