package mathx

import (
	"math"
	"sort"
)

// Trapezoid integrates y over x using the trapezoidal rule. The x values
// must be ascending; lengths must match. It returns 0 for fewer than two
// points.
func Trapezoid(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	var s float64
	for i := 1; i < len(x); i++ {
		s += (x[i] - x[i-1]) * (y[i] + y[i-1]) / 2
	}
	return s
}

// CumTrapezoid returns the running trapezoidal integral of y over x; the
// result has the same length as the inputs with a leading zero.
func CumTrapezoid(x, y []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) != len(y) || len(x) < 2 {
		return out
	}
	for i := 1; i < len(x); i++ {
		out[i] = out[i-1] + (x[i]-x[i-1])*(y[i]+y[i-1])/2
	}
	return out
}

// Interp linearly interpolates the piecewise-linear function defined by
// the ascending knots xs with values ys at the query point x. Queries
// outside the knot range clamp to the boundary values.
func Interp(x float64, xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || len(ys) != n {
		return math.NaN()
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	i := sort.SearchFloat64s(xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := xs[i-1], xs[i]
	if x1 == x0 {
		return ys[i]
	}
	t := (x - x0) / (x1 - x0)
	return ys[i-1]*(1-t) + ys[i]*t
}

// SpreadUniform adds a constant rate held over [start, end) to the
// time slots of row, slot m covering [m·width, (m+1)·width): every slot
// gains rate times its overlap with the interval. Time before 0 and at
// or past len(row)·width is dropped, so the first slot is
// ⌊max(start, 0)/width⌋ and sessions never index outside row. The edge
// slots get rate·(hi−lo) from the clamped overlap; every interior slot
// gets the constant rate·width, which is the same value bit for bit —
// for |m|·width < 2^53 the edges m·width and (m+1)·width are exact, so
// their difference is exactly width. A NaN start or end adds nothing;
// rejecting other non-finite input is the caller's job.
func SpreadUniform(row []float64, start, end, rate, width float64) {
	f := max(start, 0) / width
	if !(f < float64(len(row))) {
		return
	}
	m := int(f)
	lo := float64(m) * width
	if start > lo {
		lo = start
	}
	hi := float64(m+1) * width
	if !(end >= hi) {
		hi = end
	}
	if !(hi > lo) {
		return
	}
	row[m] += rate * (hi - lo)
	full := rate * width
	for m++; m < len(row); m++ {
		if hi := float64(m+1) * width; !(hi <= end) {
			if lo := float64(m) * width; end > lo {
				row[m] += rate * (end - lo)
			}
			return
		}
		row[m] += full
	}
}

// IsFinite reports whether v is neither NaN nor ±Inf.
func IsFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// LinSpace returns n evenly spaced points from lo to hi inclusive.
// n must be >= 2.
func LinSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// LogSpace returns n points spaced evenly on a base-10 logarithmic scale
// from 10^loExp to 10^hiExp inclusive.
func LogSpace(loExp, hiExp float64, n int) []float64 {
	exps := LinSpace(loExp, hiExp, n)
	out := make([]float64, len(exps))
	for i, e := range exps {
		out[i] = math.Pow(10, e)
	}
	return out
}

// ArgMax returns the index of the maximum element of xs, or -1 for empty
// input. Ties resolve to the first occurrence.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the minimum element of xs, or -1 for empty
// input. Ties resolve to the first occurrence.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// AlmostEqual reports whether a and b differ by at most tol in absolute
// terms, or by at most tol relative to the larger magnitude.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}
