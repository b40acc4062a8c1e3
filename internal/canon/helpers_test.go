package canon

// Helpers only the package's tests use.

// CovViews returns the covariance of two views.
func CovViews(a, b View) float64 {
	var s float64
	n := len(a) - 1
	for i := 1; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// AddConst returns the form shifted by constant c.
func (f *Form) AddConst(c float64) *Form {
	out := f.Clone()
	out.Nominal += c
	return out
}

// TakeBlock hands out n consecutive slots as one view per slot.
func (b *Bank) TakeBlock(n int) []View {
	out := make([]View, n)
	for i := range out {
		out[i] = b.Take()
	}
	return out
}
