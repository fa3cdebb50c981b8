package stats

import "math"

// This file implements exact binomial tail probabilities (via the
// log-gamma function from the standard library) and the order-statistic
// confidence bounds for quantiles used by the delay-quantile estimator
// (paper reference [20], Sommers et al., "Accurate and Efficient SLA
// Compliance Monitoring"). Given n i.i.d. samples of a distribution,
// the true q-quantile lies between the lo-th and hi-th order statistics
// with a confidence computable from the Binomial(n, q) distribution; no
// assumption about the delay distribution is needed.

// LogBinomCoeff returns log(C(n, k)) computed with Lgamma.
func LogBinomCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

// BinomPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogBinomCoeff(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lp)
}

// QuantileOrderBounds returns 1-based order-statistic indices (lo, hi)
// such that, for n i.i.d. samples, the true q-quantile lies in
// [x_(lo), x_(hi)] with probability at least conf. It returns
// ok == false when n is too small for the requested confidence (the
// caller should then fall back to the sample min/max).
//
// The bounds come from P[x_(lo) <= Q_q <= x_(hi)] =
// BinomCDF(n, hi-1, q) - BinomCDF(n, lo-1, q) = Σ_{i=lo}^{hi-1}
// BinomPMF(n, i, q): the number of samples below the true quantile is
// Binomial(n, q). The search keeps that sum running and adds only the
// terms each widening step gains, so it costs O(hi-lo) PMF evaluations
// (recomputing both CDFs per step was O(n·(hi-lo)) and dominated
// per-epoch verification).
func QuantileOrderBounds(n int, q, conf float64) (lo, hi int, ok bool) {
	if n <= 0 {
		return 0, 0, false
	}
	// Start from the central order statistic and widen symmetrically
	// (in probability mass) until the coverage reaches conf.
	center := int(math.Round(q * float64(n)))
	if center < 1 {
		center = 1
	}
	if center > n {
		center = n
	}
	lo, hi = center, center
	cover := 0.0 // Σ_{i=lo}^{hi-1} PMF(n, i, q); empty at lo == hi
	for cover < conf {
		grew := false
		if lo > 1 {
			lo--
			cover += BinomPMF(n, lo, q)
			grew = true
		}
		if hi < n {
			hi++
			cover += BinomPMF(n, hi-1, q)
			grew = true
		}
		if !grew {
			return 1, n, false
		}
	}
	return lo, hi, true
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion: k successes out of n at confidence conf (e.g. 0.95).
// Used for loss-rate estimates derived from sampled packets.
func WilsonInterval(k, n int, conf float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	z := NormalQuantile(0.5 + conf/2)
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// NormalQuantile returns the p-quantile of the standard normal
// distribution using the Acklam rational approximation (relative error
// below 1.15e-9 over the full range).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	const phigh = 1 - plow
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
