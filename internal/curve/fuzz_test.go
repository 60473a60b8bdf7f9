package curve

import (
	"testing"

	"github.com/netsched/hfsc/internal/fixpt"
)

// FuzzRTSCMin drives the runtime-curve min-update with arbitrary
// parameters and asserts the structural safety properties: no panic, the
// curve stays monotone, the first segment never exceeds the spec's, and
// the inverse stays consistent.
func FuzzRTSCMin(f *testing.F) {
	f.Add(uint64(125000), int64(10_000_000), uint64(62500), int64(5_000_000), int64(1000), int64(9_000_000), int64(2000))
	f.Add(uint64(0), int64(1_000_000), uint64(1), int64(0), int64(0), int64(1), int64(1))
	f.Add(uint64(1<<40), int64(1), uint64(1), int64(1<<40), int64(1<<40), int64(1<<41), int64(1<<41))
	f.Fuzz(func(t *testing.T, m1 uint64, d int64, m2 uint64, x1, y1, x2, y2 int64) {
		m1 %= 1 << 34
		m2 = m2%(1<<34) + 1
		if d < 0 {
			d = -d
		}
		d %= 1_000_000_000
		norm := func(v int64) int64 {
			if v < 0 {
				v = -v
			}
			return v % (1 << 40)
		}
		x1, y1, x2, y2 = norm(x1), norm(y1), norm(x2), norm(y2)
		if x2 < x1 {
			x1, x2 = x2, x1
		}
		if y2 < y1 {
			y1, y2 = y2, y1
		}
		sc := SC{M1: m1, D: d, M2: m2}
		var r RTSC
		r.Init(sc, x1, y1)
		r.Min(sc, x2, y2)
		if sc.D > 0 && r.Dx > sc.D {
			t.Fatalf("Dx %d exceeds spec D %d", r.Dx, sc.D)
		}
		// Monotonicity probes.
		prev := int64(-1)
		for _, px := range []int64{0, x1, x2, x2 + d, x2 + 2*d + 1, 1 << 41} {
			v := r.X2Y(px)
			if v < prev {
				t.Fatalf("X2Y not monotone at %d", px)
			}
			prev = v
		}
		// Inverse consistency for a reachable value.
		y := r.Y + 1
		if xx := r.Y2X(y); xx != Inf && r.X2Y(xx) < y {
			t.Fatalf("inverse inconsistent: X2Y(Y2X(%d))=%d", y, r.X2Y(xx))
		}
	})
}

// FuzzCurveInverse checks Inverse against Eval on arbitrary curves: the
// returned x reaches y (Eval(x) >= y), nothing earlier does
// (Eval(x-1) < y) unless Inverse reports Inf, and past Tail's knee Eval is
// the single final linear piece. Online deadline checks rely on all three
// (the auditor's per-packet fluid deadlines and its tail fast path).
func FuzzCurveInverse(f *testing.F) {
	f.Add(uint64(125000), int64(10_000_000), uint64(62500), uint64(0), int64(0), uint64(0), int64(1500), int64(3_000_000))
	f.Add(uint64(0), int64(5_000_000), uint64(1_000_000), uint64(0), int64(0), uint64(0), int64(1), int64(1))
	f.Add(uint64(1<<33), int64(1), uint64(3), uint64(7), int64(999_999_999), uint64(1<<20), int64(1<<40), int64(1<<30))
	f.Add(uint64(1), int64(1), uint64(1), uint64(0), int64(0), uint64(0), int64(1<<62), int64(1<<62))
	f.Fuzz(func(t *testing.T, m1 uint64, d int64, m2, n1 uint64, e int64, n2 uint64, y, dx int64) {
		norm := func(v, mod int64) int64 {
			if v < 0 {
				v = -(v + 1)
			}
			return v % mod
		}
		c := FromSC(SC{M1: m1 % (1 << 34), D: norm(d, 1_000_000_000_000), M2: m2 % (1 << 34)})
		if n1 != 0 || n2 != 0 {
			// A second curve summed in gives up to four pieces.
			c = c.Add(FromSC(SC{M1: n1 % (1 << 34), D: norm(e, 1_000_000_000_000), M2: n2 % (1 << 34)}))
		}
		y = norm(y, Inf) + 1
		x := c.Inverse(y)
		if x != Inf {
			if got := c.Eval(x); got < y {
				t.Fatalf("%v: Eval(Inverse(%d)=%d) = %d < y", c, y, x, got)
			}
			if x > 0 {
				if got := c.Eval(x - 1); got >= y {
					t.Fatalf("%v: Inverse(%d) = %d not minimal: Eval(%d) = %d", c, y, x, x-1, got)
				}
			}
		}
		kx, ky, m := c.Tail()
		for _, px := range []int64{kx, fixpt.SatAdd(kx, norm(dx, Inf))} {
			if got, want := c.Eval(px), fixpt.SatAdd(ky, segX2Y(px-kx, m)); got != want {
				t.Fatalf("%v: past the knee (%d, %d) Eval(%d) = %d, final piece gives %d", c, kx, ky, px, got, want)
			}
		}
	})
}
