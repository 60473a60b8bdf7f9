package core

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
)

// TestRecordLayout pins the field order within Class (its size, and hot's,
// are asserted at compile time in class.go): the fields every cascade
// level reads (links, flags, the link-sharing spec, the children's vt
// tree, the virtual curve) sit in Class's first two lines, with the
// queue's per-packet fields in the third.
func TestRecordLayout(t *testing.T) {
	var c Class
	for name, end := range map[string]uintptr{
		"parent":  unsafe.Offsetof(c.parent) + unsafe.Sizeof(c.parent),
		"hot":     unsafe.Offsetof(c.hot) + unsafe.Sizeof(c.hot),
		"vttree":  unsafe.Offsetof(c.vttree) + unsafe.Sizeof(c.vttree),
		"flags":   unsafe.Offsetof(c.hasUSC) + 1,
		"fsc":     unsafe.Offsetof(c.fsc) + unsafe.Sizeof(c.fsc),
		"ul":      unsafe.Offsetof(c.ul) + unsafe.Sizeof(c.ul),
		"virtual": unsafe.Offsetof(c.virtual) + unsafe.Sizeof(c.virtual),
		"rt":      unsafe.Offsetof(c.rt) + unsafe.Sizeof(c.rt),
	} {
		if end > 128 {
			t.Errorf("Class.%s ends at byte %d, past the first two lines", name, end)
		}
	}
	if off := unsafe.Offsetof(c.queue); off != 128 {
		t.Errorf("Class.queue starts at byte %d, want 128", off)
	}
}

// TestStaleHandleAfterRemove holds a *Class across RemoveClass while a new
// class recycles its hot slot and carries traffic: the stale handle reads
// zeros (and no fit time), never the new class's state, and the shared
// removed-class record stays untouched.
func TestStaleHandleAfterRemove(t *testing.T) {
	s := New(Options{})
	rsc := curve.SC{M1: 250_000, D: 5_000_000, M2: 125_000}
	usc := curve.Linear(1_000_000)
	old, err := s.AddClass(nil, "old", rsc, curve.Linear(125_000), usc)
	if err != nil {
		t.Fatal(err)
	}
	s.Enqueue(&pktq.Packet{Len: 1000, Class: old.ID()}, 0)
	if s.Dequeue(0) == nil {
		t.Fatal("dequeue failed")
	}
	if old.Total() == 0 || old.SentPackets() == 0 || old.RealTimeWork()+old.LinkShareWork() == 0 {
		t.Fatal("the class was not served")
	}
	oldHot := old.hot
	if err := s.RemoveClass(old); err != nil {
		t.Fatal(err)
	}

	// The new class takes the recycled slot and stays backlogged.
	cur, err := s.AddClass(nil, "new", rsc, curve.Linear(125_000), usc)
	if err != nil {
		t.Fatal(err)
	}
	if cur.hot != oldHot {
		t.Fatal("the new class did not recycle the removed class's hot slot")
	}
	for i := 0; i < 3; i++ {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: cur.ID()}, 0)
	}
	if s.Dequeue(0) == nil {
		t.Fatal("dequeue failed")
	}
	if cur.Total() == 0 || !cur.Active() {
		t.Fatal("the new class is not backlogged")
	}

	if old.hot == cur.hot {
		t.Fatal("stale handle aliases the re-created class's hot record")
	}
	if f, ok := old.FitAt(); ok {
		t.Errorf("stale FitAt = %d, true; want no fit", f)
	}
	for name, v := range map[string]int64{
		"Total":          old.Total(),
		"RealTimeWork":   old.RealTimeWork(),
		"LinkShareWork":  old.LinkShareWork(),
		"SentPackets":    int64(old.SentPackets()),
		"VirtualTime":    old.VirtualTime(),
		"EligibleAt":     old.EligibleAt(),
		"DeadlineAt":     old.DeadlineAt(),
		"RTCumulative":   old.RTCumulative(),
		"ActiveChildren": int64(old.ActiveChildren()),
		"QueueLen":       int64(old.QueueLen()),
	} {
		if v != 0 {
			t.Errorf("stale %s = %d, want 0", name, v)
		}
	}
	if old.Active() || old.Parent() != nil || s.ClassByID(old.ID()) != nil {
		t.Error("stale handle still looks live")
	}
	// The curve specifications stay readable on the stale handle.
	if old.RSC() != rsc || old.USC() != usc {
		t.Errorf("stale RSC/USC = %v/%v, want %v/%v", old.RSC(), old.USC(), rsc, usc)
	}
	if s.removedHot != (hot{leaf: true, myf: noFit, f: noFit, cfmin: noFit}) {
		t.Errorf("the shared removed-class record was written: %+v", s.removedHot)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSideRecordsFollowPresence checks that SetCurves creates and drops
// the real-time and upper-limit side records as curve presence flips on a
// passive class, rewrites them in place on a retune, and that the
// accessors read the zero curve when a record is absent.
func TestSideRecordsFollowPresence(t *testing.T) {
	s := New(Options{})
	ls := curve.Linear(125_000)
	cl, err := s.AddClass(nil, "a", curve.SC{}, ls, curve.SC{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.rt != nil || cl.ul != nil || !cl.RSC().IsZero() || !cl.USC().IsZero() {
		t.Fatal("a link-sharing-only class carries side records")
	}
	rsc, usc := curve.SC{M1: 250_000, D: 5_000_000, M2: 125_000}, curve.Linear(500_000)
	if err := s.SetCurves(cl, rsc, ls, usc, 0); err != nil {
		t.Fatal(err)
	}
	rt, ul := cl.rt, cl.ul
	if rt == nil || ul == nil || cl.RSC() != rsc || cl.USC() != usc {
		t.Fatal("SetCurves did not create the side records")
	}
	if err := s.SetCurves(cl, curve.Linear(200_000), ls, curve.Linear(400_000), 0); err != nil {
		t.Fatal(err)
	}
	if cl.rt != rt || cl.ul != ul {
		t.Error("a retune re-allocated the side records")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCurves(cl, curve.SC{}, ls, curve.SC{}, 0); err != nil {
		t.Fatal(err)
	}
	if cl.rt != nil || cl.ul != nil || !cl.RSC().IsZero() || !cl.USC().IsZero() {
		t.Error("SetCurves did not drop the side records")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A stray record is reported.
	cl.ul = &ulState{sc: usc}
	if err := s.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepted an upper-limit record without hasUSC")
	}
}

// TestRemoveClassAllocs checks that removal allocates nothing once the
// free list of hot slots has grown to the churn's width: a removed class
// is re-pointed at the scheduler's shared removed-class record.
func TestRemoveClassAllocs(t *testing.T) {
	s := New(Options{})
	const n = 64
	cls := make([]*Class, n)
	add := func() {
		for i := range cls {
			c, err := s.AddClass(nil, "leaf", curve.SC{}, curve.Linear(125_000), curve.SC{})
			if err != nil {
				t.Fatal(err)
			}
			cls[i] = c
		}
	}
	remove := func() {
		for _, c := range cls {
			if err := s.RemoveClass(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	add()
	remove()
	add()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	remove()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("removing %d classes allocated %d objects, want 0", n, got)
	}
}

// TestInteriorTotalCheck checks that CheckInvariants holds an interior
// class's total to exactly its children's sum, and relaxes that to "at
// least the sum" only for a class that lost a served child to RemoveClass.
func TestInteriorTotalCheck(t *testing.T) {
	s := New(Options{})
	ls := curve.Linear(125_000)
	var aggs [2]*Class
	var leaves [2][2]*Class
	for i := range aggs {
		a, err := s.AddClass(nil, "agg", curve.SC{}, ls, curve.SC{})
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = a
		for j := range leaves[i] {
			if leaves[i][j], err = s.AddClass(a, "leaf", curve.SC{}, ls, curve.SC{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range [2]*Class{leaves[0][0], leaves[1][0]} {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: l.ID()}, 0)
		if s.Dequeue(0) == nil {
			t.Fatal("dequeue failed")
		}
	}
	overcharged := func(a *Class, by int64) error {
		a.hot.total += by
		defer func() { a.hot.total -= by }()
		return s.CheckInvariants()
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if overcharged(aggs[0], 1) == nil || overcharged(aggs[0], -1) == nil {
		t.Error("CheckInvariants accepted an interior total off its children's sum")
	}

	if err := s.RemoveClass(leaves[0][0]); err != nil {
		t.Fatal(err)
	}
	if !aggs[0].surplus || aggs[1].surplus {
		t.Fatalf("surplus flags = %v/%v, want true/false", aggs[0].surplus, aggs[1].surplus)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("removal of a served child: %v", err)
	}
	if err := overcharged(aggs[0], -1001); err == nil {
		t.Error("CheckInvariants accepted a total below the children's sum")
	}
	if overcharged(aggs[1], 1) == nil {
		t.Error("CheckInvariants accepted an over-charged class that lost no child")
	}
	// Removing a child that was never served keeps the check exact.
	if err := s.RemoveClass(leaves[1][1]); err != nil {
		t.Fatal(err)
	}
	if aggs[1].surplus || overcharged(aggs[1], 1) == nil {
		t.Error("removing an unserved child relaxed the parent's check")
	}
}
