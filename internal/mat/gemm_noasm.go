//go:build !amd64

package mat

func dotPack16(a, bp, acc []float64) { dotPack16Generic(a, bp, acc) }

func convReLUPack16(x, bp, bias, y []float64, stride, ol int) {
	convReLUPack16Generic(x, bp, bias, y, stride, ol)
}
