//go:build !amd64 || purego

package canon

// Builds without the amd64 vector kernels (other architectures, or the
// purego tag) run the generic loops; the stubs below exist only to satisfy
// the dispatchers' references and are unreachable.

const useAsm = false

func dotVec(a, b *float64, n int) float64 { panic("canon: no asm kernel") }

func dot3Vec(de, p, s *float64, n int) (dp, ds, ps float64) {
	panic("canon: no asm kernel")
}

func addSqVec(dst, a, b *float64, n int) float64 { panic("canon: no asm kernel") }

func blendSqVec(dst, a, b *float64, n int, tp, tq float64) float64 {
	panic("canon: no asm kernel")
}

func varCovVec(a, b *float64, n int) (va, vb, cov float64) {
	panic("canon: no asm kernel")
}

func addVec(dst, a, b *float64, n int) { panic("canon: no asm kernel") }

func addScaledVec(dst, a, src *float64, n int, k float64) {
	panic("canon: no asm kernel")
}
