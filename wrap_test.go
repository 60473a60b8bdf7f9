package hfsc

// White-box test: the wrapper keeps its *Class handles in one name index
// (names). RemoveClass must clean it, or removed classes leak and stale
// handles resurface under a re-added name.

import (
	"errors"
	"testing"
	"time"
)

// indexLen counts the name index's entries.
func indexLen(s *Scheduler) int {
	n := 0
	s.names.Range(func(any, any) bool { n++; return true })
	return n
}

func TestRemoveClassCleansWrapMaps(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 3; i++ {
		a, err := s.AddClass(nil, "a", ClassConfig{LinkShare: Linear(Mbps)})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		// Every accessor that maps a core class back to its handle must
		// return the handle AddClass did.
		if a.Parent() != s.Root() {
			t.Fatal("parent lookup")
		}
		if cs := s.Classes(); len(cs) != 2 || cs[1] != a {
			t.Fatalf("round %d: Classes() = %v, want root and the added handle", i, cs)
		}
		if err := s.RemoveClass(a); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if got := indexLen(s); got != 0 {
			t.Fatalf("round %d: name index holds %d entries after removal", i, got)
		}
	}
	// A failed removal must leave the index intact.
	b, _ := s.AddClass(nil, "b", ClassConfig{LinkShare: Linear(Mbps)})
	s.Offer(&Packet{Len: 100, Class: b.ID()}, 0)
	if err := s.RemoveClass(b); err == nil {
		t.Fatal("removed an active class")
	}
	if s.Class("b") != b {
		t.Fatal("failed removal evicted the class from the name index")
	}
	if id, ok := s.ClassID("b"); !ok || id != b.ID() {
		t.Fatalf("ClassID(b) = %d, %v after a failed removal", id, ok)
	}
}

// Regression: removing a class and re-adding one under the same name must
// not let the stale first-generation *Class shadow or evict the live one —
// Class(name) keeps resolving to the re-added class, and a second
// RemoveClass on the stale wrapper fails with ErrClassRemoved instead of
// panicking or corrupting the name index.
func TestRemoveClassStaleWrapperAfterReadd(t *testing.T) {
	s := New(Config{})
	gen1, err := s.AddClass(nil, "tenant", ClassConfig{LinkShare: Linear(Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveClass(gen1); err != nil {
		t.Fatal(err)
	}
	gen2, err := s.AddClass(nil, "tenant", ClassConfig{LinkShare: Linear(2 * Mbps)})
	if err != nil {
		t.Fatalf("re-add under the removed name: %v", err)
	}
	if got := s.Class("tenant"); got != gen2 {
		t.Fatalf("Class(name) returned %p, want the re-added class %p", got, gen2)
	}

	// Double-remove of the stale wrapper: typed error, no panic, and the
	// live class keeps its name binding.
	if err := s.RemoveClass(gen1); !errors.Is(err, ErrClassRemoved) {
		t.Fatalf("stale RemoveClass returned %v, want ErrClassRemoved", err)
	}
	if got := s.Class("tenant"); got != gen2 {
		t.Fatal("stale RemoveClass evicted the live class from the name index")
	}
	// SetCurves on the stale wrapper is refused the same way.
	if err := s.SetCurves(gen1, ClassConfig{LinkShare: Linear(Mbps)}, 0); !errors.Is(err, ErrClassRemoved) {
		t.Fatalf("stale SetCurves returned %v, want ErrClassRemoved", err)
	}
	// Correct on the stale wrapper is a documented no-op.
	if applied := s.Correct(gen1, 100, 200, ByLinkShare, 0); applied != 0 {
		t.Fatalf("stale Correct applied %d, want 0", applied)
	}

	// The live class still schedules under its own curves.
	if s.Offer(&Packet{Len: 100, Class: gen2.ID()}, 0) != DropNone {
		t.Fatal("live class refused traffic")
	}
	if p := s.Dequeue(0); p == nil || p.Class != gen2.ID() {
		t.Fatalf("dequeue got %+v, want the live class's packet", p)
	}
}

// Lifecycle extension of the name-index hygiene regression: classes
// removed by idle collection (not an explicit RemoveClass call) must scrub
// every registry too — the name index and the collection tracking table
// itself.
func TestCollectIdleCleansWrapMaps(t *testing.T) {
	s := New(Config{})
	s.SetTemplate("", ClassTemplate{
		Class: ClassConfig{LinkShare: Linear(Mbps)},
		Grace: time.Millisecond,
	})
	cl, err := s.EnsureClass("ephemeral", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Parent() != s.Root() {
		t.Fatal("parent lookup")
	}
	if n := s.CollectIdle(int64(time.Millisecond)); n != 1 {
		t.Fatalf("collected %d classes, want 1", n)
	}
	if got := indexLen(s); got != 0 {
		t.Fatalf("name index holds %d entries after collection", got)
	}
	if _, ok := s.ClassID("ephemeral"); ok {
		t.Fatal("name registry still resolves the collected class")
	}
	if len(s.lc) != 0 {
		t.Fatal("collection table still tracks the collected class")
	}
	// The name is immediately reusable.
	if _, err := s.EnsureClass("ephemeral", int64(time.Millisecond)); err != nil {
		t.Fatalf("re-create after collection: %v", err)
	}
}
