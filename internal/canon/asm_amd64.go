//go:build amd64 && !purego

package canon

// AVX2/FMA vector kernels (asm_amd64.s) for the coefficient bodies of
// every canonical-form kernel: the propagation walker's adds, scaled adds
// and Clark max/min, the VarCov and tightness passes, the tracked-variance
// criticality chain, and the pointer-based *Form kernels, which stage their
// operands into Views and call the same bodies. They cover only the
// shared-coefficient words of a View (AddViews also hands over the nominal)
// — the private-random word stays in Go — and each carries a full scalar
// tail, so the kernels hand over the whole range.
//
// Dispatch is decided once at init, so every evaluation in a process runs
// one arithmetic. The element-wise kernels equal the generic loops of
// vec.go bit for bit; the reductions reorder the summation (lane-parallel
// accumulation and FMA contraction) and agree with them to 1e-12 relative
// (TestAsmKernelsMatchGeneric). Build with the purego tag to run the
// generic loops on amd64.

//go:noescape
func dotVec(a, b *float64, n int) float64

//go:noescape
func dot3Vec(de, p, s *float64, n int) (dp, ds, ps float64)

//go:noescape
func addSqVec(dst, a, b *float64, n int) float64

//go:noescape
func blendSqVec(dst, a, b *float64, n int, tp, tq float64) float64

//go:noescape
func varCovVec(a, b *float64, n int) (va, vb, cov float64)

//go:noescape
func addVec(dst, a, b *float64, n int)

//go:noescape
func addScaledVec(dst, a, src *float64, n int, k float64)

func cpuidAsm(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// useAsm reports AVX2 + FMA with OS-enabled YMM state.
var useAsm = func() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if c1&osxsave == 0 || c1&avx == 0 || c1&fma == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // XMM and YMM state saved
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	return b7&(1<<5) != 0 // AVX2
}()

// 512-bit kernel variants were tried and measured slower end-to-end on the
// target Xeon: the views are only 8-byte aligned, so every 64-byte load
// splits a cache line, and the ZMM license frequency drop taxes the scalar
// Clark/CDF code interleaved between kernel calls. The engine stays on
// 256-bit VEX.
