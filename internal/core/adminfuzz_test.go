package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
)

// FuzzAdminLockstep is the differential fuzz target over the admin path:
// the seed draws a random hierarchy (upper limits on, far-future eligible
// times for odd seeds) and every random parameter, and each script byte
// picks the next operation — traffic, a live SetCurves retune of an
// active class, a SetCurves that flips curve presence on a passive class,
// Correct, RemoveClass of a passive leaf, or AddClass of a new leaf. The
// fast, reference and batched schedulers apply every operation in
// lockstep and must agree on every result, and CheckInvariants (side
// records included) must hold on all three after every step. The seed
// corpus runs under plain go test;
// go test -run='^$' -fuzz=FuzzAdminLockstep ./internal/core explores
// further.
func FuzzAdminLockstep(f *testing.F) {
	f.Add(int64(0), []byte("\x00\x01\x02\x03\x04\x05\x00\x00\x01\x02\x00\x03\x04\x05"))
	f.Add(int64(7), []byte("\x00\x00\x00\x01\x01\x02\x02\x03\x03\x04\x04\x05\x05\x00\x00"))
	f.Add(int64(42), []byte("\x05\x05\x05\x00\x00\x02\x02\x04\x04\x00\x01\x03\x00\x00\x02"))
	f.Add(int64(-3), []byte("\x00\x00\x00\x00\x04\x04\x04\x05\x05\x00\x00\x02\x02\x02\x01"))
	for seed := int64(100); seed < 106; seed++ {
		f.Add(seed, adminScript(seed, maxAdminScript))
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		// Short scripts keep each run, and so the minimization of an
		// interesting input, to milliseconds.
		if len(script) > maxAdminScript {
			script = script[:maxAdminScript]
		}
		adminLockstep(t, seed, script)
	})
}

// maxAdminScript bounds the operations one fuzz input runs.
const maxAdminScript = 300

// adminScript draws a script of n operations from seed, weighted towards
// traffic so classes are active often enough for live retunes.
func adminScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		if rng.Intn(2) == 0 {
			b[i] = opTraffic
		} else {
			b[i] = byte(rng.Intn(adminOps))
		}
	}
	return b
}

// The operations a script byte selects (modulo adminOps).
const (
	opTraffic = iota
	opRetuneActive
	opFlipPassive
	opCorrect
	opRemoveLeaf
	opAddLeaf
	adminOps
)

// adminTrio is the three schedulers under comparison.
type adminTrio struct {
	t                *testing.T
	fast, ref, batch *Scheduler
	scratch          []*pktq.Packet
}

// same fails unless the three results render identically.
func (a *adminTrio) same(step int, what string, f, r, b any) {
	a.t.Helper()
	sf, sr, sb := fmt.Sprint(f), fmt.Sprint(r), fmt.Sprint(b)
	if sf != sr || sf != sb {
		a.t.Fatalf("step %d: %s: fast=%s ref=%s batch=%s", step, what, sf, sr, sb)
	}
}

// class returns the class with id in each scheduler; ids agree because
// every scheduler sees the same AddClass calls in the same order.
func (a *adminTrio) class(id int) (f, r, b *Class) {
	return a.fast.ClassByID(id), a.ref.ClassByID(id), a.batch.ClassByID(id)
}

// randCurves draws curves for a class: interior classes get a link-sharing
// curve and maybe an upper limit; leaves get a real-time and/or
// link-sharing curve and maybe an upper limit.
func randCurves(rng *rand.Rand, leaf, slowRT bool) (rsc, fsc, usc curve.SC) {
	rate := uint64(100_000 * (1 + rng.Intn(200)))
	fsc = curve.Linear(rate)
	if leaf && rng.Intn(2) == 0 {
		rsc = curve.SC{M1: 2 * rate, D: int64(1+rng.Intn(10)) * 1_000_000, M2: rate}
		if slowRT && rng.Intn(2) == 0 {
			rsc = slowRTCurve(rng, rate)
		}
		if rng.Intn(3) == 0 {
			fsc = curve.SC{}
		}
	}
	if rng.Intn(3) == 0 {
		usc = curve.Linear(1 + rate/uint64(1+rng.Intn(4)))
	}
	return rsc, fsc, usc
}

// retune draws new parameters for the curves present on cl, keeping
// presence: the change SetCurves must apply live to an active class.
func retune(rng *rand.Rand, cl *Class) (rsc, fsc, usc curve.SC) {
	rate := uint64(100_000 * (1 + rng.Intn(200)))
	if cl.hasRSC {
		rsc = curve.SC{M1: rate + uint64(rng.Intn(2))*rate, D: int64(rng.Intn(10)) * 1_000_000, M2: rate}
	}
	if cl.hasFSC {
		fsc = curve.Linear(1 + rate/uint64(1+rng.Intn(3)))
	}
	if cl.hasUSC {
		usc = curve.Linear(1 + rate/uint64(1+rng.Intn(4)))
	}
	return rsc, fsc, usc
}

// pick returns a random element of ids, or -1 when empty.
func pick(rng *rand.Rand, ids []int) int {
	if len(ids) == 0 {
		return -1
	}
	return ids[rng.Intn(len(ids))]
}

func adminLockstep(t *testing.T, seed int64, script []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	slowRT := seed%2 != 0
	specs := randHierarchy(rng, true, slowRT)
	a := &adminTrio{t: t, fast: New(Options{}), ref: New(Options{refImpl: true}), batch: New(Options{})}
	buildGolden(t, a.fast, specs)
	buildGolden(t, a.ref, specs)
	buildGolden(t, a.batch, specs)

	now := int64(0)
	added := 0
	var stale []*Class // removed classes of the fast scheduler
	for step, op := range script {
		// The class sets, read off the fast scheduler (the others are
		// structurally identical, which CheckInvariants and the id
		// lookups below confirm).
		var leaves, active, passive, passiveLeaves, parents []int
		parents = append(parents, 0)
		for _, c := range a.fast.Classes()[1:] {
			id := c.ID()
			if c.IsLeaf() {
				leaves = append(leaves, id)
			}
			if c.Active() {
				active = append(active, id)
			} else {
				passive = append(passive, id)
				if c.IsLeaf() {
					passiveLeaves = append(passiveLeaves, id)
				}
			}
			if c.hasFSC && !c.hasRSC {
				parents = append(parents, id)
			}
		}

		switch int(op) % adminOps {
		case opTraffic:
			now += int64(rng.Intn(3)) * int64(rng.Intn(200_000))
			a.traffic(step, rng, leaves, now)
		case opRetuneActive:
			id := pick(rng, active)
			if id < 0 {
				continue
			}
			rsc, fsc, usc := retune(rng, a.fast.ClassByID(id))
			f, r, b := a.class(id)
			a.same(step, "live SetCurves", a.fast.SetCurves(f, rsc, fsc, usc, now),
				a.ref.SetCurves(r, rsc, fsc, usc, now), a.batch.SetCurves(b, rsc, fsc, usc, now))
		case opFlipPassive:
			id := pick(rng, passive)
			if id < 0 {
				continue
			}
			f, r, b := a.class(id)
			rsc, fsc, usc := randCurves(rng, f.IsLeaf(), slowRT)
			a.same(step, "passive SetCurves", a.fast.SetCurves(f, rsc, fsc, usc, now),
				a.ref.SetCurves(r, rsc, fsc, usc, now), a.batch.SetCurves(b, rsc, fsc, usc, now))
		case opCorrect:
			id := pick(rng, leaves)
			if id < 0 {
				continue
			}
			est, act := int64(rng.Intn(3000)), int64(rng.Intn(3000))
			crit := pktq.ByLinkShare
			if rng.Intn(2) == 0 {
				crit = pktq.ByRealTime
			}
			f, r, b := a.class(id)
			a.same(step, "Correct", a.fast.Correct(f, est, act, crit, now),
				a.ref.Correct(r, est, act, crit, now), a.batch.Correct(b, est, act, crit, now))
		case opRemoveLeaf:
			id := pick(rng, passiveLeaves)
			if id < 0 {
				continue
			}
			f, r, b := a.class(id)
			errF := a.fast.RemoveClass(f)
			a.same(step, "RemoveClass", errF, a.ref.RemoveClass(r), a.batch.RemoveClass(b))
			if errF == nil {
				stale = append(stale, f)
			}
		case opAddLeaf:
			pid := pick(rng, parents)
			rsc, fsc, usc := randCurves(rng, true, slowRT)
			name := fmt.Sprintf("n%d", added)
			added++
			var ids [3]int
			var errs [3]error
			for i, s := range [3]*Scheduler{a.fast, a.ref, a.batch} {
				c, err := s.AddClass(s.ClassByID(pid), name, rsc, fsc, usc)
				if err == nil {
					ids[i] = c.ID()
				}
				errs[i] = err
			}
			a.same(step, "AddClass", errs[0], errs[1], errs[2])
			a.same(step, "AddClass id", ids[0], ids[1], ids[2])
		}

		for name, s := range map[string]*Scheduler{"fast": a.fast, "ref": a.ref, "batch": a.batch} {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %d): %s invariants: %v", step, int(op)%adminOps, name, err)
			}
		}
		tf, okF := a.fast.NextReady(now)
		tr, okR := a.ref.NextReady(now)
		tb, okB := a.batch.NextReady(now)
		a.same(step, "NextReady", fmt.Sprint(tf, okF), fmt.Sprint(tr, okR), fmt.Sprint(tb, okB))
		for _, c := range stale {
			if c.Total() != 0 || c.hot != &a.fast.removedHot {
				t.Fatalf("step %d: removed class %q reads total %d (hot %p)", step, c.name, c.Total(), c.hot)
			}
		}
	}
	if a.fast.removedHot != (hot{leaf: true, myf: noFit, f: noFit, cfmin: noFit}) {
		t.Fatalf("the shared removed-class record was written: %+v", a.fast.removedHot)
	}
}

// traffic enqueues a small burst to random leaves and dequeues a burst —
// fast and reference packet by packet, batched through DequeueN —
// failing on the first difference in acceptance, selection, criterion or
// deadline.
func (a *adminTrio) traffic(step int, rng *rand.Rand, leaves []int, now int64) {
	t := a.t
	t.Helper()
	if len(leaves) > 0 {
		for k := rng.Intn(4); k > 0; k-- {
			id := pick(rng, leaves)
			ln := 64 + rng.Intn(1436)
			okF := a.fast.Enqueue(&pktq.Packet{Len: ln, Class: id}, now)
			okR := a.ref.Enqueue(&pktq.Packet{Len: ln, Class: id}, now)
			okB := a.batch.Enqueue(&pktq.Packet{Len: ln, Class: id}, now)
			a.same(step, "Enqueue", okF, okR, okB)
		}
	}
	m := rng.Intn(4)
	a.scratch = a.batch.DequeueN(now, m, a.scratch[:0])
	got := 0
	for i := 0; i < m; i++ {
		pf, pr := a.fast.Dequeue(now), a.ref.Dequeue(now)
		if (pf == nil) != (pr == nil) {
			t.Fatalf("step %d: fast=%v ref=%v", step, pf, pr)
		}
		if pf == nil {
			break
		}
		if got >= len(a.scratch) {
			t.Fatalf("step %d: DequeueN returned %d packets, Dequeue produced more", step, len(a.scratch))
		}
		pb := a.scratch[got]
		got++
		a.same(step, "Dequeue", fmt.Sprint(pf.Class, pf.Crit, pf.Deadline),
			fmt.Sprint(pr.Class, pr.Crit, pr.Deadline), fmt.Sprint(pb.Class, pb.Crit, pb.Deadline))
	}
	if got != len(a.scratch) {
		t.Fatalf("step %d: DequeueN returned %d packets, Dequeue stopped at %d", step, len(a.scratch), got)
	}
}
