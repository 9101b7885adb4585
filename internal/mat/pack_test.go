package mat

import (
	"math"
	"testing"

	"minicost/internal/rng"
)

func TestPackTransBLayout(t *testing.T) {
	b := randomMatrix(rng.New(41), 19, 5) // ragged: 19 columns -> 2 tiles
	pb := PackTransBTo(nil, b)
	if pb.Cols != 19 || pb.K != 5 {
		t.Fatalf("packed dims %dx%d", pb.Cols, pb.K)
	}
	if len(pb.Data) != 2*5*packLanes {
		t.Fatalf("packed len %d", len(pb.Data))
	}
	for j := 0; j < b.Rows; j++ {
		tile, lane := j/packLanes, j%packLanes
		for i := 0; i < b.Cols; i++ {
			if got := pb.Data[tile*b.Cols*packLanes+i*packLanes+lane]; got != b.At(j, i) {
				t.Fatalf("pack[%d][%d] = %v, want %v", j, i, got, b.At(j, i))
			}
		}
	}
	// Padded lanes must be zero.
	for lane := 19 % packLanes; lane < packLanes; lane++ {
		for i := 0; i < b.Cols; i++ {
			if v := pb.Data[1*b.Cols*packLanes+i*packLanes+lane]; v != 0 {
				t.Fatalf("pad lane %d not zeroed: %v", lane, v)
			}
		}
	}
}

// TestMulPackMatchesScalarBitwise pins the packed (SIMD on amd64) kernel to
// the scalar reference: identical bits at every shape, including ragged
// tiles, tiny k, and no-bias calls.
func TestMulPackMatchesScalarBitwise(t *testing.T) {
	r := rng.New(42)
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 4, 3}, {7, 34, 16}, {13, 9, 17},
		{64, 128, 32}, {57, 3206, 128}, {2, 4, 128}, {5, 7, 15},
	}
	for _, c := range cases {
		a := randomMatrix(r, c.m, c.k)
		b := randomMatrix(r, c.n, c.k)
		bias := make([]float64, c.n)
		for i := range bias {
			bias[i] = r.NormalMS(0, 1)
		}
		pb := PackTransBTo(nil, b)
		for _, workers := range []int{1, 0, 4} {
			for _, useBias := range []bool{true, false} {
				bs := bias
				if !useBias {
					bs = nil
				}
				want := MulTransBBiasTo(nil, a, b, bs, 1)
				got := MulPackTransBBiasTo(nil, a, pb, bs, workers)
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("%dx%d·(%dx%d)ᵀ workers=%d bias=%v: packed[%d]=%v scalar=%v",
							c.m, c.k, c.n, c.k, workers, useBias, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestMulPackReusesBuffers(t *testing.T) {
	r := rng.New(43)
	a := randomMatrix(r, 10, 20)
	b := randomMatrix(r, 17, 20)
	pb := PackTransBTo(nil, b)
	packData := &pb.Data[0]
	pb = PackTransBTo(pb, b)
	if &pb.Data[0] != packData {
		t.Fatal("PackTransBTo reallocated a sufficient buffer")
	}
	dst := MulPackTransBBiasTo(nil, a, pb, nil, 1)
	dstData := &dst.Data[0]
	dst = MulPackTransBBiasTo(dst, a, pb, nil, 1)
	if &dst.Data[0] != dstData {
		t.Fatal("MulPackTransBBiasTo reallocated a sufficient buffer")
	}
	allocs := testing.AllocsPerRun(10, func() {
		pb = PackTransBTo(pb, b)
		dst = MulPackTransBBiasTo(dst, a, pb, nil, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pack+mul allocates %.0f times, want 0", allocs)
	}
}

// edgeValues are the inputs a kernel's epilogue and accumulation must treat
// exactly like the scalar reference: signed zeros, NaN, infinities and
// subnormals.
var edgeValues = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.5e-310, -1e-308}

// edgyVector fills n values drawn from N(0,1), with roughly one in five
// replaced by an edge value.
func edgyVector(r *rng.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if r.Float64() < 0.2 {
			v[i] = edgeValues[r.Intn(len(edgeValues))]
		} else {
			v[i] = r.NormalMS(0, 1)
		}
	}
	return v
}

// negZeroCase makes every conv output exactly -0 (input +0, bias -0,
// weights negative so each product is -0): the rectifier must store +0.
func negZeroCase(x, w, bias []float64) {
	for i := range x {
		x[i] = 0
	}
	for i := range w {
		w[i] = -math.Abs(w[i]) - 1
	}
	for i := range bias {
		bias[i] = math.Copysign(0, -1)
	}
}

// sameFloat is bitwise equality, except that any two NaNs match: a NaN's
// payload depends on operand order, which the exactness contract does not
// pin.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDotPack16MatchesGenericBitwise compares the dispatched packed dot
// kernel (AVX on capable amd64 CPUs) with its portable arm on dirty
// accumulators, across shared-dimension lengths including zero and values
// including signed zeros, NaN, infinities and subnormals.
func TestDotPack16MatchesGenericBitwise(t *testing.T) {
	r := rng.New(44)
	for _, k := range []int{0, 1, 3, 4, 17, packKBlock, 301} {
		for _, edgy := range []bool{false, true} {
			a := randomMatrix(r, 1, k).Data
			bp := randomMatrix(r, 1, k*packLanes).Data
			acc := randomMatrix(r, 1, packLanes).Data
			if edgy {
				a, bp, acc = edgyVector(r, k), edgyVector(r, k*packLanes), edgyVector(r, packLanes)
			}
			got := append([]float64(nil), acc...)
			want := append([]float64(nil), acc...)
			dotPack16(a, bp, got)
			dotPack16Generic(a, bp, want)
			for lane := range want {
				if !sameFloat(got[lane], want[lane]) {
					t.Fatalf("k=%d edgy=%v: lane %d = %v, generic %v", k, edgy, lane, got[lane], want[lane])
				}
			}
		}
	}
}

// convShapes cover a full tile with ragged filters on both sides of it
// (4, 20, 33), the paper's width (128), strides 1 and 2, and kernels 3-5.
var convShapes = []struct{ inLen, filters, kernel, stride int }{
	{14, 4, 4, 1}, {14, 20, 3, 1}, {28, 33, 5, 2}, {28, 128, 4, 1}, {13, 16, 5, 2}, {9, 20, 4, 2}, {5, 33, 5, 1},
}

// TestConvReLUPack16MatchesGenericBitwise compares the dispatched fused
// tile kernel with its portable arm, including edge values in the input,
// weights and bias: the rectifier must turn NaN and -0 into +0 exactly as
// the scalar `v > 0 ? v : 0` does.
func TestConvReLUPack16MatchesGenericBitwise(t *testing.T) {
	r := rng.New(45)
	for _, sh := range convShapes {
		ol := (sh.inLen-sh.kernel)/sh.stride + 1
		for _, input := range []string{"normal", "edgy", "-0"} {
			x := randomMatrix(r, 1, sh.inLen).Data
			bp := randomMatrix(r, 1, sh.kernel*packLanes).Data
			bias := randomMatrix(r, 1, packLanes).Data
			switch input {
			case "edgy":
				x, bp, bias = edgyVector(r, sh.inLen), edgyVector(r, sh.kernel*packLanes), edgyVector(r, packLanes)
			case "-0":
				negZeroCase(x, bp, bias)
			}
			got := make([]float64, packLanes*ol)
			want := make([]float64, packLanes*ol)
			for i := range got {
				got[i], want[i] = math.NaN(), math.NaN() // every slot must be written
			}
			convReLUPack16(x, bp, bias, got, sh.stride, ol)
			convReLUPack16Generic(x, bp, bias, want, sh.stride, ol)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%+v %s: y[%d] = %v, generic %v", sh, input, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConvReLURowMatchesReferenceBitwise pins the whole-row fused kernel
// (full tiles on the dispatched arm, ragged tiles on the scalar lanes) to
// the unfused reference: bias-seeded k-sequential correlation, then the
// rectifier, channel-major.
func TestConvReLURowMatchesReferenceBitwise(t *testing.T) {
	r := rng.New(46)
	for _, sh := range convShapes {
		ol := (sh.inLen-sh.kernel)/sh.stride + 1
		for _, input := range []string{"normal", "edgy", "-0"} {
			x := randomMatrix(r, 1, sh.inLen).Data
			w := randomMatrix(r, sh.filters, sh.kernel)
			bias := randomMatrix(r, 1, sh.filters).Data
			switch input {
			case "edgy":
				x, bias = edgyVector(r, sh.inLen), edgyVector(r, sh.filters)
				copy(w.Data, edgyVector(r, len(w.Data)))
			case "-0":
				negZeroCase(x, w.Data, bias)
			}
			y := make([]float64, sh.filters*ol+3)
			for i := range y {
				y[i] = -7 // sentinel: slots past filters·ol must stay untouched
			}
			ConvReLURow(y, x, PackTransBTo(nil, w), bias, sh.stride)
			for f := 0; f < sh.filters; f++ {
				for tt := 0; tt < ol; tt++ {
					s := bias[f]
					for k := 0; k < sh.kernel; k++ {
						s += w.At(f, k) * x[tt*sh.stride+k]
					}
					if !(s > 0) {
						s = 0
					}
					if got := y[f*ol+tt]; math.Float64bits(got) != math.Float64bits(s) {
						t.Fatalf("%+v %s: y[%d][%d] = %v, reference %v", sh, input, f, tt, got, s)
					}
				}
			}
			for i := sh.filters * ol; i < len(y); i++ {
				if y[i] != -7 {
					t.Fatalf("%+v: ConvReLURow wrote past filters·ol at %d", sh, i)
				}
			}
		}
	}
}

func TestConvReLURowPanicsOnBadShape(t *testing.T) {
	pb := PackTransBTo(nil, New(4, 3))
	for name, call := range map[string]func(){
		"short output":   func() { ConvReLURow(make([]float64, 4*3-1), make([]float64, 5), pb, make([]float64, 4), 1) },
		"kernel > input": func() { ConvReLURow(make([]float64, 64), make([]float64, 2), pb, make([]float64, 4), 1) },
		"bias length":    func() { ConvReLURow(make([]float64, 64), make([]float64, 5), pb, make([]float64, 3), 1) },
		"zero stride":    func() { ConvReLURow(make([]float64, 64), make([]float64, 5), pb, make([]float64, 4), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
