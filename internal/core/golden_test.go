package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
)

// The golden-trace tests gate the hot-path optimizations: the augmented
// firstFit descent, the fit-index NextReady, the reposition-skip fast paths
// and the batched DequeueN must all select exactly the packets the
// straightforward reference implementations select, on randomized
// hierarchies with and without upper-limit curves.

// goldenSpec describes one leaf (or interior) class to create identically
// in every scheduler under comparison.
type goldenSpec struct {
	parent        int // index into the spec list, -1 for root
	rsc, fsc, usc curve.SC
}

// randHierarchy generates a random two-level hierarchy. With uscOn, about
// half the classes (interior and leaf) carry upper-limit curves tight
// enough to defer them regularly. With slowRT, about half the real-time
// curves are replaced by ones that park eligible times far beyond the
// clock (see slowRTCurve), and a third of those leaves are real-time only.
// With slowRT off no extra values are drawn, which keeps the frozen
// flat-state traces valid.
func randHierarchy(rng *rand.Rand, uscOn, slowRT bool) []goldenSpec {
	var specs []goldenSpec
	nTop := 2 + rng.Intn(4)
	for i := 0; i < nTop; i++ {
		rate := uint64(1_000_000 * (1 + rng.Intn(20)))
		top := goldenSpec{parent: -1, fsc: curve.Linear(rate)}
		interior := rng.Intn(2) == 0
		if uscOn && rng.Intn(2) == 0 {
			top.usc = curve.Linear(rate / uint64(1+rng.Intn(4)))
		}
		if !interior {
			if rng.Intn(2) == 0 {
				top.rsc = curve.SC{M1: 2 * rate, D: int64(1+rng.Intn(10)) * 1_000_000, M2: rate}
				if slowRT && rng.Intn(2) == 0 {
					top.rsc = slowRTCurve(rng, rate)
				}
			}
			specs = append(specs, top)
			continue
		}
		topIdx := len(specs)
		specs = append(specs, top)
		nKids := 2 + rng.Intn(4)
		for j := 0; j < nKids; j++ {
			kr := rate / uint64(nKids)
			kid := goldenSpec{parent: topIdx, fsc: curve.Linear(1 + kr)}
			if rng.Intn(2) == 0 {
				kid.rsc = curve.SC{M1: 2 * kr, D: int64(1+rng.Intn(10)) * 1_000_000, M2: kr}
				if slowRT && rng.Intn(2) == 0 {
					kid.rsc = slowRTCurve(rng, kr)
					if rng.Intn(3) == 0 {
						kid.fsc = curve.SC{}
					}
				}
			}
			if uscOn && rng.Intn(2) == 0 {
				kid.usc = curve.Linear(1 + kr/uint64(1+rng.Intn(4)))
			}
			specs = append(specs, kid)
		}
	}
	return specs
}

// slowRTCurve draws a real-time curve whose eligible times run far ahead
// of the clock: either M2 == 0, so no service is guaranteed past the first
// segment and eligible times saturate, or an M2 below 8 kB/s, where one
// 2 kB packet moves the eligible time more than 256 ms.
func slowRTCurve(rng *rand.Rand, rate uint64) curve.SC {
	sc := curve.SC{M1: 2 * rate, D: int64(1+rng.Intn(10)) * 1_000_000}
	if rng.Intn(2) == 0 {
		sc.M2 = uint64(1 + rng.Intn(7999))
	}
	return sc
}

// build instantiates the spec list on a scheduler and returns the leaf
// class IDs (classes that received no children).
func buildGolden(t *testing.T, s *Scheduler, specs []goldenSpec) []int {
	t.Helper()
	classes := make([]*Class, len(specs))
	hasKids := make([]bool, len(specs))
	for i, sp := range specs {
		var parent *Class
		if sp.parent >= 0 {
			parent = classes[sp.parent]
			hasKids[sp.parent] = true
		}
		// Interior classes must not carry rsc; the generator only attaches
		// children to specs without one.
		cl, err := s.AddClass(parent, fmt.Sprintf("c%d", i), sp.rsc, sp.fsc, sp.usc)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		classes[i] = cl
	}
	var leaves []int
	for i, cl := range classes {
		if !hasKids[i] {
			leaves = append(leaves, cl.ID())
		}
	}
	return leaves
}

func TestGoldenTraceRandom(t *testing.T) {
	for _, in := range []struct{ usc, slowRT bool }{{false, false}, {true, false}, {true, true}} {
		name := fmt.Sprintf("usc=%v", in.usc)
		if in.slowRT {
			name += "/slowrt"
		}
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				goldenLockstep(t, seed, in.usc, in.slowRT, 4000)
			})
		}
	}
}

// FuzzGoldenLockstep is the differential fuzz target over the golden
// lockstep: the seed drives a random hierarchy with upper limits on (and,
// for odd seeds, far-future eligible times) and the traffic against it,
// and the fast, reference and batched schedulers must agree packet for
// packet. The seed corpus runs under plain go test;
// go test -run='^$' -fuzz=FuzzGoldenLockstep ./internal/core explores
// further.
func FuzzGoldenLockstep(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, -3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		goldenLockstep(t, seed, true, seed%2 != 0, 1000)
	})
}

// goldenLockstep builds the hierarchy randHierarchy draws from seed on a
// fast, a reference (refImpl: linear scans instead of the eligible tree's
// and the vt trees' descents) and a batched scheduler, then drives all
// three with the same seed-drawn traffic for steps steps: each step
// enqueues a small burst to random leaves and dequeues a burst — fast and
// reference packet by packet, batched through DequeueN — failing on the
// first difference in selection, criterion, deadline or retry time, or on
// a broken invariant (checked every 200 steps and at the end).
func goldenLockstep(t *testing.T, seed int64, uscOn, slowRT bool, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	specs := randHierarchy(rng, uscOn, slowRT)

	fast := New(Options{})
	ref := New(Options{refImpl: true})
	batch := New(Options{})
	leavesF := buildGolden(t, fast, specs)
	leavesR := buildGolden(t, ref, specs)
	leavesB := buildGolden(t, batch, specs)
	if len(leavesF) != len(leavesR) || len(leavesF) != len(leavesB) {
		t.Fatal("leaf sets differ")
	}

	checkAll := func(when string) {
		t.Helper()
		for name, s := range map[string]*Scheduler{"fast": fast, "ref": ref, "batch": batch} {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: %s invariants: %v", when, name, err)
			}
		}
	}

	now := int64(0)
	var scratch []*pktq.Packet
	for step := 0; step < steps; step++ {
		now += int64(rng.Intn(3)) * int64(rng.Intn(200_000))
		// Enqueue a small burst to random leaves.
		for k := rng.Intn(3); k > 0; k-- {
			li := rng.Intn(len(leavesF))
			ln := 64 + rng.Intn(1436)
			okF := fast.Enqueue(&pktq.Packet{Len: ln, Class: leavesF[li]}, now)
			okR := ref.Enqueue(&pktq.Packet{Len: ln, Class: leavesR[li]}, now)
			okB := batch.Enqueue(&pktq.Packet{Len: ln, Class: leavesB[li]}, now)
			if okF != okR || okF != okB {
				t.Fatalf("step %d: enqueue accept mismatch %v/%v/%v", step, okF, okR, okB)
			}
		}
		// Dequeue a burst: fast and ref packet by packet, batch
		// via DequeueN.
		m := rng.Intn(4)
		scratch = batch.DequeueN(now, m, scratch[:0])
		got := 0
		for i := 0; i < m; i++ {
			pf := fast.Dequeue(now)
			pr := ref.Dequeue(now)
			if (pf == nil) != (pr == nil) {
				t.Fatalf("step %d: fast=%v ref=%v", step, pf, pr)
			}
			if pf == nil {
				break
			}
			if pf.Class != pr.Class || pf.Crit != pr.Crit || pf.Deadline != pr.Deadline {
				t.Fatalf("step %d pkt %d: fast {cl=%d %v d=%d} vs ref {cl=%d %v d=%d}",
					step, i, pf.Class, pf.Crit, pf.Deadline, pr.Class, pr.Crit, pr.Deadline)
			}
			if got >= len(scratch) {
				t.Fatalf("step %d: DequeueN returned %d packets, Dequeue produced more", step, len(scratch))
			}
			pb := scratch[got]
			got++
			if pb.Class != pf.Class || pb.Crit != pf.Crit || pb.Deadline != pf.Deadline {
				t.Fatalf("step %d pkt %d: DequeueN {cl=%d %v} vs Dequeue {cl=%d %v}",
					step, i, pb.Class, pb.Crit, pf.Class, pf.Crit)
			}
		}
		if got != len(scratch) {
			t.Fatalf("step %d: DequeueN returned %d packets, Dequeue stopped at %d", step, len(scratch), got)
		}
		// The retry-time query must agree exactly.
		tf, okF := fast.NextReady(now)
		tr, okR := ref.NextReady(now)
		tb, okB := batch.NextReady(now)
		if okF != okR || okF != okB || (okF && (tf != tr || tf != tb)) {
			t.Fatalf("step %d: NextReady fast=(%d,%v) ref=(%d,%v) batch=(%d,%v)",
				step, tf, okF, tr, okR, tb, okB)
		}
		if step%200 == 0 {
			checkAll(fmt.Sprintf("step %d", step))
		}
	}
	checkAll("end")
}

// TestGoldenDrain runs the schedulers dry after a heavy backlog, covering
// the passivation cascade and upper-limit idling on the way down.
func TestGoldenDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	specs := randHierarchy(rng, true, false)
	fast := New(Options{})
	ref := New(Options{refImpl: true})
	leavesF := buildGolden(t, fast, specs)
	leavesR := buildGolden(t, ref, specs)

	now := int64(0)
	for i := 0; i < 500; i++ {
		li := rng.Intn(len(leavesF))
		ln := 64 + rng.Intn(1436)
		fast.Enqueue(&pktq.Packet{Len: ln, Class: leavesF[li]}, now)
		ref.Enqueue(&pktq.Packet{Len: ln, Class: leavesR[li]}, now)
	}
	for fast.Backlog() > 0 || ref.Backlog() > 0 {
		pf := fast.Dequeue(now)
		pr := ref.Dequeue(now)
		if (pf == nil) != (pr == nil) {
			t.Fatalf("drain divergence at now=%d", now)
		}
		if pf == nil {
			tf, okF := fast.NextReady(now)
			tr, okR := ref.NextReady(now)
			if okF != okR || tf != tr {
				t.Fatalf("NextReady divergence at now=%d: (%d,%v) vs (%d,%v)", now, tf, okF, tr, okR)
			}
			if !okF {
				t.Fatalf("backlogged but no retry time at now=%d", now)
			}
			now = tf
			continue
		}
		if pf.Class != pr.Class || pf.Crit != pr.Crit {
			t.Fatalf("drain pick mismatch: %d/%v vs %d/%v", pf.Class, pf.Crit, pr.Class, pr.Crit)
		}
	}
	if err := fast.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
