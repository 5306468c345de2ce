// Package rational provides exact density arithmetic. A graph density is a
// ratio µ/n of two non-negative integers; comparing densities with floating
// point risks misordering subgraphs whose densities differ by as little as
// 1/(n(n−1)) (Lemma 12 of the paper), so all density comparisons in this
// repository go through R.Cmp, which cross-multiplies in int64 and falls
// back to math/big on potential overflow.
package rational

import (
	"fmt"
	"math"
	"math/big"
)

// R is the non-negative rational Num/Den. Den == 0 with Num == 0 denotes
// the density of an empty subgraph and compares less than every proper
// density.
type R struct {
	Num int64
	Den int64
}

// Zero is the density of the empty subgraph.
var Zero = R{0, 0}

// New returns the rational num/den. den must be non-negative.
func New(num, den int64) R { return R{Num: num, Den: den} }

// Decode builds the exact density num/den from caller-supplied integers,
// mapping anything malformed — a non-positive denominator (the JSON zero
// value) or a negative numerator — to the empty density, which compares
// below every proper density and therefore can never inflate a bound.
func Decode(num, den int64) R {
	if den <= 0 || num < 0 {
		return Zero
	}
	return New(num, den)
}

// IsZero reports whether r denotes an empty/zero density.
func (r R) IsZero() bool { return r.Num == 0 }

// Float returns the float64 value of r (0 for the empty density).
func (r R) Float() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// Ceil returns ⌈r⌉ (0 for the empty density).
func (r R) Ceil() int64 {
	if r.Den == 0 {
		return 0
	}
	return (r.Num + r.Den - 1) / r.Den
}

// String renders r as a decimal with enough digits for test output.
func (r R) String() string {
	if r.Den == 0 {
		return "0"
	}
	return fmt.Sprintf("%d/%d=%.4f", r.Num, r.Den, r.Float())
}

// mulOverflows reports whether a*b overflows int64. Both a and b must be
// non-negative.
func mulOverflows(a, b int64) bool {
	if a == 0 || b == 0 {
		return false
	}
	return a > math.MaxInt64/b
}

// Cmp compares r and s exactly, returning -1, 0 or +1.
func (r R) Cmp(s R) int {
	// Empty densities compare below everything except other empties.
	switch {
	case r.Den == 0 && s.Den == 0:
		return cmpInt64(r.Num, s.Num) // both should be 0 in practice
	case r.Den == 0:
		if s.Num == 0 {
			return cmpInt64(r.Num, 0)
		}
		return -1
	case s.Den == 0:
		if r.Num == 0 {
			return cmpInt64(0, s.Num)
		}
		return 1
	}
	if mulOverflows(r.Num, s.Den) || mulOverflows(s.Num, r.Den) {
		a := new(big.Int).Mul(big.NewInt(r.Num), big.NewInt(s.Den))
		b := new(big.Int).Mul(big.NewInt(s.Num), big.NewInt(r.Den))
		return a.Cmp(b)
	}
	return cmpInt64(r.Num*s.Den, s.Num*r.Den)
}

// CmpFloat compares r with the exact real value of f, returning -1, 0 or
// +1. A float64 is a dyadic rational, so the comparison is performed
// exactly via math/big; no rounding of r to float64 is involved. The
// degraded CoreExact paths rely on this to call an answer degraded only
// when a float upper bound provably exceeds its exact density (comparing
// r.Float() < f could err by an ulp either way). NaN compares as +Inf
// would: above every finite density.
func (r R) CmpFloat(f float64) int {
	if math.IsNaN(f) || math.IsInf(f, 1) {
		return -1
	}
	if math.IsInf(f, -1) {
		return 1
	}
	if r.Den == 0 {
		// Empty density: below every positive value, equal to 0.
		switch {
		case f > 0:
			return -1
		case f < 0:
			return 1
		default:
			return 0
		}
	}
	rf := new(big.Rat).SetFrac64(r.Num, r.Den)
	ff := new(big.Rat).SetFloat64(f)
	return rf.Cmp(ff)
}

// Less reports r < s exactly.
func (r R) Less(s R) bool { return r.Cmp(s) < 0 }

// Greater reports r > s exactly.
func (r R) Greater(s R) bool { return r.Cmp(s) > 0 }

// Max returns the larger of r and s.
func Max(r, s R) R {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
