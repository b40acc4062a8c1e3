// Package variation models process variation the way the paper's Section II
// and Section VI describe it: each process parameter decomposes into a
// global part shared by the whole die, a spatially correlated grid-local
// part, and a purely random part (paper eq. 1). The grid-local parts of the
// grids of a die are jointly Gaussian with a distance-based correlation, and
// are decomposed by PCA into independent components (paper eq. 2).
package variation

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Parameter describes one process parameter with variation. Sigma is the
// relative (fraction-of-nominal) standard deviation of the parameter. The
// three shares partition the parameter's variance between the global,
// grid-local and purely random mechanisms and must sum to 1.
type Parameter struct {
	Name        string
	Sigma       float64
	GlobalShare float64
	LocalShare  float64
	RandomShare float64
}

// Validate checks the share partition.
func (p Parameter) Validate() error {
	if p.Sigma < 0 {
		return fmt.Errorf("variation: parameter %q has negative sigma", p.Name)
	}
	for _, s := range []float64{p.GlobalShare, p.LocalShare, p.RandomShare} {
		if s < 0 || s > 1 {
			return fmt.Errorf("variation: parameter %q has share outside [0,1]", p.Name)
		}
	}
	if d := p.GlobalShare + p.LocalShare + p.RandomShare; math.Abs(d-1) > 1e-9 {
		return fmt.Errorf("variation: parameter %q shares sum to %g, want 1", p.Name, d)
	}
	return nil
}

// Nassif90nm returns the three process parameters of the paper's Section VI
// (transistor length, oxide thickness, threshold voltage from Nassif's CICC
// 2001 data) with the variance split chosen so the quoted correlations hold:
// distant cells correlate at 0.42 (global share), same-grid cells at 0.95.
func Nassif90nm() []Parameter {
	return []Parameter{
		{Name: "Leff", Sigma: 0.157, GlobalShare: 0.42, LocalShare: 0.53, RandomShare: 0.05},
		{Name: "Tox", Sigma: 0.053, GlobalShare: 0.42, LocalShare: 0.53, RandomShare: 0.05},
		{Name: "Vth", Sigma: 0.044, GlobalShare: 0.42, LocalShare: 0.53, RandomShare: 0.05},
	}
}

// LoadSigma is the relative standard deviation of the load variation from
// the paper's Section VI ("Load variance was assigned to 15%"). Load
// variation is purely random per delay edge.
const LoadSigma = 0.15

// CorrelationModel is the distance-based grid correlation of Section VI:
// total correlation 0.92 between neighboring grids, decaying exponentially
// to the global floor 0.42 at grid distance Range, and exactly the floor
// beyond. Internally it stores the correlation of the *local* part only
// (the global part contributes the floor uniformly):
//
//	rho_local(d) = (A*exp(-lambda*d) - B) clamped to [0, 1], zero beyond Range
//
// fitted so rho_local(0) = 1 and rho_total(1) = floor + localShare-scaled
// rho_local(1) matches RhoNeighbor.
type CorrelationModel struct {
	RhoNeighbor float64 // total correlation at grid distance 1 (paper: 0.92)
	RhoFloor    float64 // total correlation from global variation (paper: 0.42)
	Range       float64 // grid distance where local correlation reaches 0 (paper: 15)

	a, b, lambda float64
}

// DefaultCorrelation returns the paper's Section VI numbers.
func DefaultCorrelation() (*CorrelationModel, error) {
	return NewCorrelationModel(0.92, 0.42, 15)
}

// NewCorrelationModel fits the shifted-exponential local correlation. The
// local correlation at distance 1 is (rhoNeighbor - rhoFloor)/(1 - rhoFloor),
// interpreting the floor as the global variance share of the correlated
// (global + local) parameter portion.
func NewCorrelationModel(rhoNeighbor, rhoFloor, rng float64) (*CorrelationModel, error) {
	if !(rhoFloor >= 0 && rhoFloor < rhoNeighbor && rhoNeighbor < 1) {
		return nil, fmt.Errorf("variation: need 0 <= floor < neighbor < 1, got %g, %g", rhoFloor, rhoNeighbor)
	}
	if rng <= 1 {
		return nil, fmt.Errorf("variation: correlation range must exceed 1, got %g", rng)
	}
	m := &CorrelationModel{RhoNeighbor: rhoNeighbor, RhoFloor: rhoFloor, Range: rng}
	target := (rhoNeighbor - rhoFloor) / (1 - rhoFloor) // rho_local(1)

	// Solve for lambda with A = 1/(1-e^(-lambda*R)), B = A*e^(-lambda*R)
	// such that A*e^(-lambda) - B = target. The left side decreases
	// monotonically in lambda from 1 (lambda->0) to 0 (lambda->inf), so
	// bisection is safe.
	f := func(l float64) float64 {
		er := math.Exp(-l * rng)
		a := 1 / (1 - er)
		return a*(math.Exp(-l)-er) - target
	}
	// Feasibility: as lambda -> 0 the shape becomes linear 1 - d/range, so
	// the largest achievable local correlation at distance 1 is
	// (range-1)/range; the convex exponential family cannot exceed it.
	if maxLocal := (rng - 1) / rng; target >= maxLocal {
		return nil, fmt.Errorf("variation: neighbor correlation %g needs local(1)=%.3f, above the %.3f limit of a range-%g model",
			rhoNeighbor, target, maxLocal, rng)
	}
	lo, hi := 1e-8, 50.0
	if f(lo) < 0 || f(hi) > 0 {
		return nil, errors.New("variation: correlation fit bracket failed")
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	m.lambda = 0.5 * (lo + hi)
	er := math.Exp(-m.lambda * rng)
	m.a = 1 / (1 - er)
	m.b = m.a * er
	return m, nil
}

// Local returns the correlation of the grid-local parts at grid distance d
// (in units of the default grid pitch). Local(0) = 1, Local(d >= Range) = 0.
func (m *CorrelationModel) Local(d float64) float64 {
	if d <= 0 {
		return 1
	}
	if d >= m.Range {
		return 0
	}
	v := m.a*math.Exp(-m.lambda*d) - m.b
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Total returns the total correlation of the correlated (global + local)
// parameter portion at grid distance d, i.e. floor + (1-floor)*Local(d).
func (m *CorrelationModel) Total(d float64) float64 {
	return m.RhoFloor + (1-m.RhoFloor)*m.Local(d)
}

// GridModel holds the spatial decomposition of one die: an nx x ny grid, the
// local-part correlation matrix over the grids, and its PCA factor A with
// pl = A x for iid standard normal x. Columns of A corresponding to
// near-zero eigenvalues are dropped, so A is n x Comps.
type GridModel struct {
	NX, NY int
	Pitch  float64 // grid pitch (width = height) in placement units
	Corr   *CorrelationModel

	C     *mat.Dense // n x n local correlation matrix (unit diagonal)
	A     *mat.Dense // n x Comps: pl = A x, x ~ iid N(0,1)
	Ainv  *mat.Dense // Comps x n: pseudo-inverse Lambda^(-1/2) E^T, x = Ainv pl
	Comps int
}

// eigDropTol drops PCA components whose eigenvalue is below this fraction of
// the largest eigenvalue (rank deficiency from the clamped correlation tail).
const eigDropTol = 1e-10

// NewGridModel builds the grid model for an nx x ny grid with the given
// pitch and correlation model. Grid distance is the Euclidean distance of
// grid centers in pitch units.
func NewGridModel(nx, ny int, pitch float64, corr *CorrelationModel) (*GridModel, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("variation: invalid grid %dx%d", nx, ny)
	}
	if pitch <= 0 {
		return nil, fmt.Errorf("variation: invalid pitch %g", pitch)
	}
	n := nx * ny
	centers := make([][2]float64, n)
	for gy := 0; gy < ny; gy++ {
		for gx := 0; gx < nx; gx++ {
			centers[gy*nx+gx] = [2]float64{(float64(gx) + 0.5) * pitch, (float64(gy) + 0.5) * pitch}
		}
	}
	return newGridModelFromCenters(nx, ny, pitch, corr, centers)
}

// MinComponents returns a lower bound on the component count
// NewGridModel(nx, ny, pitch, corr) retains, without its eigensolve (the
// pitch cancels out of grid distances).
//
// The correlation matrix C has trace n = nx*ny, and its largest eigenvalue
// is at most R, its largest Gershgorin row sum. Every dropped eigenvalue is
// at most the threshold τ = eigDropTol·max(λmax, 1) ≤ τ' = eigDropTol·R,
// so for k retained ones n ≤ k·R + (n−k)·τ', that is k ≥ n(1−τ')/(R−τ'),
// lowered by a relative margin for the eigensolver's rounding. That bound
// is weak on strongly correlated grids (3 for the default correlation on
// 16x16 cells, which keep all 256), so when it is below n the bound is
// sharpened with a certificate: if C − σI, σ = 1e-6·R, has a Cholesky
// factor, every eigenvalue of C exceeds σ less the factorization's
// rounding (a few n·ε·R), far above τ', and all n components are kept.
// The certificate is one O(n³/6) factorization, a small fraction of the
// eigensolve it stands in for.
func MinComponents(nx, ny int, corr *CorrelationModel) int {
	n := nx * ny
	// near[dy*nx+dx] is the correlation of two grids dx, dy cells apart.
	near := make([]float64, n)
	for dy := 0; dy < ny; dy++ {
		for dx := 0; dx < nx; dx++ {
			near[dy*nx+dx] = corr.Local(math.Hypot(float64(dx), float64(dy)))
		}
	}
	at := func(i, j int) float64 { return near[abs(i/nx-j/nx)*nx+abs(i%nx-j%nx)] }
	var r float64
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			row += at(i, j)
		}
		r = math.Max(r, row)
	}
	tau := eigDropTol * r // r >= 1: the diagonal is 1
	k := int(math.Ceil(float64(n) * (1 - tau) / (r - tau) * (1 - 1e-9)))
	if k < n && choleskyShifted(n, at, 1e-6*r) {
		return n
	}
	return k
}

// choleskyShifted reports whether the n x n symmetric matrix with entries
// at(i, j), less sigma on the diagonal, has a Cholesky factor with every
// pivot positive.
func choleskyShifted(n int, at func(i, j int) float64, sigma float64) bool {
	l := make([]float64, n*n) // lower triangle, row-major
	for i := 0; i < n; i++ {
		ri := l[i*n : i*n+i+1]
		for j := range ri {
			ri[j] = at(i, j)
		}
		ri[i] -= sigma
	}
	for j := 0; j < n; j++ {
		rj := l[j*n : j*n+j]
		d := l[j*n+j] - dot(rj, rj)
		if !(d > 0) {
			return false
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		for i := j + 1; i < n; i++ {
			l[i*n+j] = (l[i*n+j] - dot(l[i*n:i*n+j], rj)) / d
		}
	}
	return true
}

func dot(a, b []float64) float64 {
	var s float64
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NewGridModelFromCenters builds a grid model over arbitrary grid centers
// (used for the heterogeneous design-level partition of paper Section V,
// where grids may have different shapes). nx/ny are informational only.
func NewGridModelFromCenters(pitch float64, corr *CorrelationModel, centers [][2]float64) (*GridModel, error) {
	if len(centers) == 0 {
		return nil, errors.New("variation: no grid centers")
	}
	return newGridModelFromCenters(0, 0, pitch, corr, centers)
}

func newGridModelFromCenters(nx, ny int, pitch float64, corr *CorrelationModel, centers [][2]float64) (*GridModel, error) {
	n := len(centers)
	c := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		c.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			dx := (centers[i][0] - centers[j][0]) / pitch
			dy := (centers[i][1] - centers[j][1]) / pitch
			rho := corr.Local(math.Hypot(dx, dy))
			c.Set(i, j, rho)
			c.Set(j, i, rho)
		}
	}
	eig, err := mat.EigenSym(c)
	if err != nil {
		return nil, fmt.Errorf("variation: PCA failed: %w", err)
	}
	// Retain components with eigenvalue above tolerance; clamp small
	// negatives (clamped-exponential correlations are not guaranteed PSD).
	maxEig := math.Max(eig.Values[0], 0)
	comps := 0
	for _, v := range eig.Values {
		if v > eigDropTol*math.Max(maxEig, 1) {
			comps++
		}
	}
	if comps == 0 {
		return nil, errors.New("variation: correlation matrix has no positive eigenvalues")
	}
	a := mat.NewDense(n, comps)
	ainv := mat.NewDense(comps, n)
	for k := 0; k < comps; k++ {
		s := math.Sqrt(eig.Values[k])
		for i := 0; i < n; i++ {
			a.Set(i, k, eig.Vectors.At(i, k)*s)
			ainv.Set(k, i, eig.Vectors.At(i, k)/s)
		}
	}
	return &GridModel{NX: nx, NY: ny, Pitch: pitch, Corr: corr, C: c, A: a, Ainv: ainv, Comps: comps}, nil
}

// N returns the number of grids.
func (g *GridModel) N() int { return g.C.Rows() }

// CoeffRow returns row i of A: the coefficients expressing grid i's local
// variable as a combination of the independent components (paper eq. 2-3).
func (g *GridModel) CoeffRow(grid int) []float64 { return g.A.Row(grid) }

// CholeskyLocal returns the lower Cholesky factor of the local correlation
// matrix, used by Monte Carlo to sample correlated grid locals directly.
func (g *GridModel) CholeskyLocal() (*mat.Dense, error) {
	// The clamped tail can make C very slightly indefinite; PCA already
	// clamps, so rebuild a PSD version from the retained components when
	// plain Cholesky fails.
	l, err := mat.Cholesky(g.C)
	if err == nil {
		return l, nil
	}
	psd, merr := mat.Mul(g.A, g.A.T())
	if merr != nil {
		return nil, merr
	}
	return mat.Cholesky(psd)
}
