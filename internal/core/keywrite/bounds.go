package keywrite

import (
	"math"

	"dta/internal/analysis"
)

// Analytic error bounds for the Key-Write primitive, following Appendix
// A.5 of the paper. The scenario: a key was written with redundancy N to
// a store of M slots, then K = α·M further distinct keys were written.
// Under the standard Poisson approximation the probability that a given
// slot was overwritten is 1 − e^{−αN}, and an overwriting key masquerades
// as ours with checksum-collision probability 2^−b.
//
// The paper's worked example — N=2, b=32, α=0.1 gives an empty return
// under 3.3% and a wrong output under 1.6·10⁻¹¹ — is checked in the
// tests. The generic machinery lives in internal/analysis and is shared
// with Postcarding's A.6 bounds.

// checksumCollision returns q = 2^−b.
func checksumCollision(b int) float64 {
	if b <= 0 || b > 32 {
		b = 32
	}
	return math.Pow(2, -float64(b))
}

// EmptyReturnBound bounds the probability that a query for a written key
// returns no answer (eqs. 1–3).
func EmptyReturnBound(alpha float64, n, b int) float64 {
	return analysis.EmptyReturnBound(alpha, n, checksumCollision(b))
}

// WrongOutputBound bounds the probability that a query returns an
// incorrect value (eq. 4).
func WrongOutputBound(alpha float64, n, b int) float64 {
	return analysis.WrongOutputBound(alpha, n, checksumCollision(b))
}

// QuerySuccessEstimate estimates the probability that a query succeeds
// when checksum collisions are negligible (large b): at least one of the
// N slots survived the α·M subsequent writes. This is the analytic curve
// behind Fig. 12 and Fig. 13.
func QuerySuccessEstimate(alpha float64, n int) float64 {
	return analysis.SuccessEstimate(alpha, n)
}

// OptimalRedundancy returns the N in [1, maxN] that maximises the
// query-success estimate at load factor α. Fig. 12's background shading
// shows this choice flipping from high N at low load to N=1 at high load.
func OptimalRedundancy(alpha float64, maxN int) int {
	best, bestP := 1, QuerySuccessEstimate(alpha, 1)
	for n := 2; n <= maxN; n++ {
		if p := QuerySuccessEstimate(alpha, n); p > bestP {
			best, bestP = n, p
		}
	}
	return best
}
