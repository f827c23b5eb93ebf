//go:build !amd64

package mt

// useAVX2 is always false off amd64: the Go lanes are the only kernels.
var useAVX2 = false

func cpuHasAVX2() bool { return false }

func fillSegAVX2(o, cur, nxt, tap *uint32, n int) { panic("mt: AVX2 kernel on a non-amd64 build") }

func fill521AVX2(o, st *uint32) { panic("mt: AVX2 kernel on a non-amd64 build") }
