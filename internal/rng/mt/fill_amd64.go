package mt

// useAVX2 routes fillSeg's multiple-of-8 head and fill521's first 16
// words through the AVX2 kernels in fill_amd64.s. It is set once, at
// package init, from the CPU's feature bits; the kernels are integer-only,
// so the flag changes the speed of a fill and never its words.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 (CPUID leaf 7, EBX
// bit 5) and the operating system saves the YMM registers across context
// switches (CPUID leaf 1 OSXSAVE, then XGETBV's XMM and YMM state bits).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (a, d uint32)

// fillSegAVX2 is fillSeg's twist+temper datapath eight words per step
// over the first n words of o, cur, nxt and tap; n is a positive multiple
// of 8. See fill_amd64.s for why the 8-lane order is the sequential one.
//
//go:noescape
func fillSegAVX2(o, cur, nxt, tap *uint32, n int)

// fill521AVX2 regenerates and tempers words 0–15 of one MT521 state
// block (st and o hold 17 words); the caller finishes word 16.
//
//go:noescape
func fill521AVX2(o, st *uint32)
