package hfsc_test

import (
	"errors"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
)

// Every failure mode of the public API must map onto one of the exported
// sentinels via errors.Is, so callers can branch on the cause without
// string matching; the error text still names the class involved.

func TestErrDuplicateClass(t *testing.T) {
	s := hfsc.New(hfsc.Config{})
	if _, err := s.AddClass(nil, "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
		t.Fatal(err)
	}
	_, err := s.AddClass(nil, "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if !errors.Is(err, hfsc.ErrDuplicateClass) {
		t.Fatalf("want ErrDuplicateClass, got %v", err)
	}
	if got := err.Error(); got != `hfsc: duplicate class name "a"` {
		t.Fatalf("message changed: %q", got)
	}
}

func TestErrNilClass(t *testing.T) {
	s := hfsc.New(hfsc.Config{})
	if err := s.RemoveClass(nil); !errors.Is(err, hfsc.ErrNilClass) {
		t.Fatalf("RemoveClass(nil): want ErrNilClass, got %v", err)
	}
	if err := s.SetCurves(nil, hfsc.ClassConfig{}, 0); !errors.Is(err, hfsc.ErrNilClass) {
		t.Fatalf("SetCurves(nil): want ErrNilClass, got %v", err)
	}
}

func TestErrRootClass(t *testing.T) {
	s := hfsc.New(hfsc.Config{})
	if err := s.RemoveClass(s.Root()); !errors.Is(err, hfsc.ErrRootClass) {
		t.Fatalf("RemoveClass(root): want ErrRootClass, got %v", err)
	}
	if err := s.SetCurves(s.Root(), hfsc.ClassConfig{LinkShare: hfsc.Linear(1)}, 0); !errors.Is(err, hfsc.ErrRootClass) {
		t.Fatalf("SetCurves(root): want ErrRootClass, got %v", err)
	}
}

func TestErrNotLeaf(t *testing.T) {
	s := hfsc.New(hfsc.Config{})
	parent, err := s.AddClass(nil, "agency", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddClass(parent, "leaf", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
		t.Fatal(err)
	}
	err = s.RemoveClass(parent)
	if !errors.Is(err, hfsc.ErrNotLeaf) {
		t.Fatalf("want ErrNotLeaf, got %v", err)
	}
	if errors.Is(err, hfsc.ErrClassActive) {
		t.Fatal("ErrNotLeaf must not match ErrClassActive")
	}
}

func TestErrClassActive(t *testing.T) {
	s := hfsc.New(hfsc.Config{})
	a, err := s.AddClass(nil, "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Offer(&hfsc.Packet{Len: 100, Class: a.ID()}, 0) != hfsc.DropNone {
		t.Fatal("enqueue failed")
	}
	if err := s.RemoveClass(a); !errors.Is(err, hfsc.ErrClassActive) {
		t.Fatalf("RemoveClass(active): want ErrClassActive, got %v", err)
	}
	if err := s.RemoveClass(a); !errors.Is(err, hfsc.ErrClassBusy) {
		t.Fatalf("ErrClassBusy must alias ErrClassActive, got %v", err)
	}
	// Parameter changes apply live; changing curve *presence* (here:
	// gaining a real-time curve) needs a passive class.
	if err := s.SetCurves(a, hfsc.ClassConfig{LinkShare: hfsc.Linear(2 * hfsc.Mbps)}, 0); err != nil {
		t.Fatalf("SetCurves(active, same presence): %v", err)
	}
	if err := s.SetCurves(a, hfsc.ClassConfig{RealTime: hfsc.Linear(hfsc.Mbps), LinkShare: hfsc.Linear(hfsc.Mbps)}, 0); !errors.Is(err, hfsc.ErrClassActive) {
		t.Fatalf("SetCurves(active, presence change): want ErrClassActive, got %v", err)
	}
	// Drain; both operations must succeed once the class is passive again.
	if s.Dequeue(0) == nil {
		t.Fatal("dequeue failed")
	}
	if err := s.SetCurves(a, hfsc.ClassConfig{LinkShare: hfsc.Linear(2 * hfsc.Mbps)}, 0); err != nil {
		t.Fatalf("SetCurves after drain: %v", err)
	}
	if err := s.RemoveClass(a); err != nil {
		t.Fatalf("RemoveClass after drain: %v", err)
	}
}

func TestErrNoLinkRate(t *testing.T) {
	s := hfsc.New(hfsc.Config{}) // LinkRate deliberately unset
	if err := s.Admissible(); !errors.Is(err, hfsc.ErrNoLinkRate) {
		t.Fatalf("Admissible: want ErrNoLinkRate, got %v", err)
	}
	if err := s.Admissible(); err.Error() != "hfsc: Config.LinkRate not set; cannot check admissibility" {
		t.Fatalf("message changed: %q", err.Error())
	}
	if _, err := s.DelayBound(hfsc.Linear(hfsc.Mbps), 1500, 1500); !errors.Is(err, hfsc.ErrNoLinkRate) {
		t.Fatalf("DelayBound: want ErrNoLinkRate, got %v", err)
	}
}

// TestDelayBoundSentinels pins the typed errors on DelayBound's validation
// paths: a convex (non-concave) real-time curve, a work unit above lmax,
// and a curve that never delivers the requested burst — each must be
// matchable with errors.Is, on both the Scheduler and PacedQueue surfaces.
func TestDelayBoundSentinels(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps})

	// Convex: first segment slower than the second. The Theorem 1/2 bound
	// assumes a concave curve, so this must be refused, not mis-computed.
	convex := hfsc.SC{M1: hfsc.Mbps, D: int64(5 * time.Millisecond), M2: 2 * hfsc.Mbps}
	if _, err := s.DelayBound(convex, 1500, 1500); !errors.Is(err, hfsc.ErrNonConcaveCurve) {
		t.Errorf("convex curve: want ErrNonConcaveCurve, got %v", err)
	}

	// A burst larger than the largest packet is inconsistent input.
	if _, err := s.DelayBound(hfsc.Linear(hfsc.Mbps), 3000, 1500); !errors.Is(err, hfsc.ErrUnitExceedsLMax) {
		t.Errorf("u > lmax: want ErrUnitExceedsLMax, got %v", err)
	}

	// The zero curve never supplies the burst: unreachable, not a bound.
	if _, err := s.DelayBound(hfsc.SC{}, 1500, 1500); !errors.Is(err, hfsc.ErrCurveUnreachable) {
		t.Errorf("zero curve: want ErrCurveUnreachable, got %v", err)
	}

	// A valid concave curve still computes cleanly alongside the sentinels.
	concave := hfsc.SC{M1: 2 * hfsc.Mbps, D: int64(10 * time.Millisecond), M2: hfsc.Mbps}
	if d, err := s.DelayBound(concave, 1500, 1500); err != nil || d <= 0 {
		t.Errorf("concave curve: got (%v, %v), want a positive bound", d, err)
	}

	// The same sentinels must surface through PacedQueue.DelayBound on a
	// multi-shard queue.
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: 10 * hfsc.Mbps},
		Shards: 2,
	}, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if _, err := m.AddClass("", "leaf", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DelayBound("ghost", 1500, 1500); !errors.Is(err, hfsc.ErrUnknownClass) {
		t.Errorf("unknown class: want ErrUnknownClass, got %v", err)
	}
	// The leaf carries no real-time curve, so its RSC is the zero curve.
	if _, err := m.DelayBound("leaf", 1500, 1500); !errors.Is(err, hfsc.ErrCurveUnreachable) {
		t.Errorf("multi-shard zero curve: want ErrCurveUnreachable, got %v", err)
	}
	if _, err := m.DelayBound("leaf", 3000, 1500); !errors.Is(err, hfsc.ErrUnitExceedsLMax) {
		t.Errorf("multi-shard u > lmax: want ErrUnitExceedsLMax, got %v", err)
	}
}

func TestErrInadmissible(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: hfsc.Mbps})
	if _, err := s.AddClass(nil, "greedy", hfsc.ClassConfig{
		RealTime:  hfsc.Linear(2 * hfsc.Mbps),
		LinkShare: hfsc.Linear(hfsc.Mbps),
	}); err != nil {
		t.Fatal(err)
	}
	err := s.Admissible()
	if !errors.Is(err, hfsc.ErrInadmissible) {
		t.Fatalf("want ErrInadmissible, got %v", err)
	}
	if got := err.Error(); got != "hfsc: real-time curves exceed the link capacity (125000 B/s)" {
		t.Fatalf("message changed: %q", got)
	}
}

func TestErrMetricsDisabled(t *testing.T) {
	s := hfsc.New(hfsc.Config{}) // Metrics off
	if snap := s.Snapshot(); snap != nil {
		t.Fatal("Snapshot non-nil with metrics disabled")
	}
	if err := s.WriteMetrics(nil); !errors.Is(err, hfsc.ErrMetricsDisabled) {
		t.Fatalf("want ErrMetricsDisabled, got %v", err)
	}
}

func TestOfferDropReasons(t *testing.T) {
	s := hfsc.New(hfsc.Config{DefaultQueueLimit: 1, Metrics: true})
	parent, _ := s.AddClass(nil, "p", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	leaf, err := s.AddClass(parent, "leaf", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *hfsc.Packet
		want hfsc.DropReason
	}{
		{"accepted", &hfsc.Packet{Len: 100, Class: leaf.ID()}, hfsc.DropNone},
		{"queue-limit", &hfsc.Packet{Len: 100, Class: leaf.ID()}, hfsc.DropQueueLimit},
		{"unknown-id", &hfsc.Packet{Len: 100, Class: 999}, hfsc.DropUnknownClass},
		{"interior", &hfsc.Packet{Len: 100, Class: parent.ID()}, hfsc.DropUnknownClass},
		{"root", &hfsc.Packet{Len: 100, Class: s.Root().ID()}, hfsc.DropUnknownClass},
		{"nil-packet", nil, hfsc.DropBadPacket},
		{"zero-length", &hfsc.Packet{Len: 0, Class: leaf.ID()}, hfsc.DropBadPacket},
	}
	for _, c := range cases {
		if got := s.Offer(c.p, 0); got != c.want {
			t.Errorf("%s: Offer = %v, want %v", c.name, got, c.want)
		}
	}
	// A repeated refusal is counted again.
	if s.Offer(&hfsc.Packet{Len: 100, Class: 999}, 0) == hfsc.DropNone {
		t.Error("Offer accepted an unknown class")
	}
	// All refusals above are visible in the metrics under their reasons.
	snap := s.Snapshot()
	if snap.DropsUnknownClass != 4 { // 3 cases + the repeated probe
		t.Errorf("DropsUnknownClass = %d, want 4", snap.DropsUnknownClass)
	}
	if snap.DropsBadPacket != 2 {
		t.Errorf("DropsBadPacket = %d, want 2", snap.DropsBadPacket)
	}
	cs := leaf.Metrics()
	if cs.DropsQueueLimit != 1 {
		t.Errorf("DropsQueueLimit = %d, want 1", cs.DropsQueueLimit)
	}
	if got := hfsc.DropQueueLimit.String(); got != "queue-limit" {
		t.Errorf("DropReason.String() = %q", got)
	}
}
