package mat

// Assembly kernels (gemm_amd64.s) with runtime AVX detection. The AVX
// kernel keeps one output column per vector lane so every element's
// accumulation stays sequential — see the exactness contract in gemm.go.

//go:noescape
func dotPack16AVX(a, bp, acc []float64)

//go:noescape
func convReLUPack16AVX(x, bp, bias, y []float64, stride, ol int)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// haveAVX reports whether the CPU supports AVX and the OS preserves YMM
// state across context switches (OSXSAVE + XCR0 bits 1-2).
var haveAVX = func() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 1 {
		return false
	}
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx, _ := cpuidAsm(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbvAsm()
	return eax&6 == 6
}()

func dotPack16(a, bp, acc []float64) {
	if haveAVX {
		dotPack16AVX(a, bp, acc)
		return
	}
	dotPack16Generic(a, bp, acc)
}

func convReLUPack16(x, bp, bias, y []float64, stride, ol int) {
	if haveAVX {
		convReLUPack16AVX(x, bp, bias, y, stride, ol)
		return
	}
	convReLUPack16Generic(x, bp, bias, y, stride, ol)
}
