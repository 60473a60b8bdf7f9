package fixpt

import (
	"math"
	"math/big"
	"testing"
)

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// refQuo returns floor(a*b/c) or ceil(a*b/c) as a big integer.
func refQuo(a, b, c uint64, ceil bool) *big.Int {
	n := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
	q, r := new(big.Int).QuoRem(n, new(big.Int).SetUint64(c), new(big.Int))
	if ceil && r.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q
}

// satInt64 clamps a big integer to [math.MinInt64, MaxInt64].
func satInt64(x *big.Int) int64 {
	switch {
	case x.Cmp(big.NewInt(MaxInt64)) > 0:
		return MaxInt64
	case x.Cmp(big.NewInt(math.MinInt64)) < 0:
		return math.MinInt64
	}
	return x.Int64()
}

// FuzzFixpt checks every helper against math/big: the exact quotients
// where they fit, a panic where MulDiv/MulDivCeil overflow or c is zero,
// saturation at MaxInt64 for the Sat forms, SatAdd's refusal of negative
// operands and SatSub's clamp to [0, MaxInt64].
func FuzzFixpt(f *testing.F) {
	f.Add(uint64(1500), uint64(125_000_000), uint64(1_000_000_000), int64(7), int64(3))
	f.Add(uint64(math.MaxUint64), uint64(2), uint64(4), int64(MaxInt64), int64(1))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), int64(-1), int64(0))
	f.Add(uint64(1<<63), uint64(3), uint64(2), int64(MaxInt64), int64(-1))
	f.Add(uint64(5), uint64(7), uint64(0), int64(math.MinInt64), int64(MaxInt64))
	f.Fuzz(func(t *testing.T, a, b, c uint64, x, y int64) {
		if c == 0 {
			for name, fn := range map[string]func(){
				"MulDiv":        func() { MulDiv(a, b, c) },
				"MulDivCeil":    func() { MulDivCeil(a, b, c) },
				"MulDivSat":     func() { MulDivSat(a, b, c) },
				"MulDivCeilSat": func() { MulDivCeilSat(a, b, c) },
			} {
				if !panics(fn) {
					t.Errorf("%s(%d, %d, 0) did not panic", name, a, b)
				}
			}
		} else {
			for _, ceil := range []bool{false, true} {
				want := refQuo(a, b, c, ceil)
				var got uint64
				var sat int64
				exact := func() { got = MulDiv(a, b, c) }
				if ceil {
					exact = func() { got = MulDivCeil(a, b, c) }
					sat = MulDivCeilSat(a, b, c)
				} else {
					sat = MulDivSat(a, b, c)
				}
				overflowed := panics(exact)
				if want.IsUint64() != !overflowed || !overflowed && got != want.Uint64() {
					t.Errorf("MulDiv(%d, %d, %d, ceil=%v) = %d (panic %v), want %v", a, b, c, ceil, got, overflowed, want)
				}
				if w := satInt64(want); sat != w {
					t.Errorf("MulDivSat(%d, %d, %d, ceil=%v) = %d, want %d", a, b, c, ceil, sat, w)
				}
			}
		}

		var sum int64
		refused := panics(func() { sum = SatAdd(x, y) })
		if refused != (x < 0 || y < 0) {
			t.Errorf("SatAdd(%d, %d) panic = %v", x, y, refused)
		} else if w := satInt64(new(big.Int).Add(big.NewInt(x), big.NewInt(y))); !refused && sum != w {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", x, y, sum, w)
		}

		diff := new(big.Int).Sub(big.NewInt(x), big.NewInt(y))
		if diff.Sign() < 0 {
			diff.SetInt64(0)
		}
		if got, w := SatSub(x, y), satInt64(diff); got != w {
			t.Errorf("SatSub(%d, %d) = %d, want %d", x, y, got, w)
		}
	})
}
