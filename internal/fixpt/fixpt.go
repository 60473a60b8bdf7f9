// Package fixpt provides exact wide-integer arithmetic helpers used by all
// service-curve computations.
//
// Throughout the scheduler, time is measured in integer nanoseconds, service
// in integer bytes, and curve slopes in bytes per second. Evaluating a curve
// segment therefore requires expressions of the form a*b/c where the
// intermediate product a*b overflows 64 bits (e.g. nanosecond spans times
// byte-per-second slopes). This package computes such expressions exactly
// using 128-bit intermediates, with explicit floor/ceil rounding and
// saturation, so that all curve math in the repository is deterministic and
// free of floating-point drift.
package fixpt

import "math/bits"

// MaxInt64 is the saturation bound used by the Sat* helpers.
const MaxInt64 = int64(^uint64(0) >> 1)

// MulDiv returns floor(a*b/c) computed with a 128-bit intermediate product.
// It panics if c == 0 or if the result overflows uint64.
func MulDiv(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if c == 0 {
		panic("fixpt: division by zero")
	}
	if hi >= c {
		panic("fixpt: MulDiv overflow")
	}
	q, _ := bits.Div64(hi, lo, c)
	return q
}

// MulDivCeil returns ceil(a*b/c) computed with a 128-bit intermediate
// product. It panics if c == 0 or if the result overflows uint64.
func MulDivCeil(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if c == 0 {
		panic("fixpt: division by zero")
	}
	if hi >= c {
		panic("fixpt: MulDivCeil overflow")
	}
	q, r := bits.Div64(hi, lo, c)
	if r != 0 {
		if q == ^uint64(0) {
			panic("fixpt: MulDivCeil overflow")
		}
		q++
	}
	return q
}

// MulDivSat returns floor(a*b/c), saturating at MaxInt64 instead of
// panicking on overflow. It panics if c == 0.
func MulDivSat(a, b, c uint64) int64 {
	hi, lo := bits.Mul64(a, b)
	if c == 0 {
		panic("fixpt: division by zero")
	}
	if hi >= c {
		return MaxInt64
	}
	q, _ := bits.Div64(hi, lo, c)
	if q > uint64(MaxInt64) {
		return MaxInt64
	}
	return int64(q)
}

// MulDivCeilSat returns ceil(a*b/c), saturating at MaxInt64 instead of
// panicking on overflow. It panics if c == 0.
func MulDivCeilSat(a, b, c uint64) int64 {
	hi, lo := bits.Mul64(a, b)
	if c == 0 {
		panic("fixpt: division by zero")
	}
	if hi >= c {
		return MaxInt64
	}
	q, r := bits.Div64(hi, lo, c)
	if q >= uint64(MaxInt64) { // checked before rounding up: q+1 may wrap
		return MaxInt64
	}
	if r != 0 {
		q++
	}
	return int64(q)
}

// SatAdd returns a+b for nonnegative a, b, saturating at MaxInt64.
// It panics if either operand is negative: scheduler quantities
// (times, byte counts) are never negative at addition sites.
func SatAdd(a, b int64) int64 {
	if a < 0 || b < 0 {
		panic("fixpt: SatAdd of negative value")
	}
	if a > MaxInt64-b {
		return MaxInt64
	}
	return a + b
}

// SatSub returns a-b clamped to [0, MaxInt64].
func SatSub(a, b int64) int64 {
	if a < b {
		return 0
	}
	if d := a - b; d >= 0 {
		return d
	}
	return MaxInt64 // a >= 0 > b and the difference wrapped
}
