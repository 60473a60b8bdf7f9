package hfsc_test

import (
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
)

func TestPublicAPIQuickstart(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps})
	rt, err := hfsc.ForRealTime(1500, 10*time.Millisecond, 2*hfsc.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	video, err := s.AddClass(nil, "video", hfsc.ClassConfig{
		RealTime:  rt,
		LinkShare: hfsc.Linear(2 * hfsc.Mbps),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.AddClass(nil, "data", hfsc.ClassConfig{
		LinkShare: hfsc.Linear(8 * hfsc.Mbps),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Admissible(); err != nil {
		t.Fatalf("admissible: %v", err)
	}

	now := int64(0)
	if s.Offer(&hfsc.Packet{Len: 1500, Class: video.ID()}, now) != hfsc.DropNone {
		t.Fatal("enqueue failed")
	}
	s.Offer(&hfsc.Packet{Len: 1000, Class: data.ID()}, now)
	if s.Backlog() != 2 {
		t.Fatalf("backlog %d", s.Backlog())
	}
	p1 := s.Dequeue(now)
	if p1 == nil {
		t.Fatal("dequeue nil")
	}
	p2 := s.Dequeue(now + 1_200_000)
	if p2 == nil || s.Backlog() != 0 {
		t.Fatal("second dequeue failed")
	}
	if s.Dequeue(now+3_000_000) != nil {
		t.Fatal("dequeue from empty")
	}

	st := video.Stats()
	if st.SentPackets+data.Stats().SentPackets != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicAPINaming(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: hfsc.Mbps})
	a, _ := s.AddClass(nil, "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if s.Class("a") != a {
		t.Fatal("lookup by name failed")
	}
	if s.Class("missing") != nil {
		t.Fatal("phantom class")
	}
	if _, err := s.AddClass(nil, "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(1)}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if a.Parent() != s.Root() {
		t.Fatal("parent wiring")
	}
	if len(s.Root().Children()) != 1 || s.Root().Children()[0] != a {
		t.Fatal("children wiring")
	}
	if len(s.Classes()) != 2 {
		t.Fatal("classes list")
	}
}

func TestAdmissionControl(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: hfsc.Mbps})
	s.AddClass(nil, "a", hfsc.ClassConfig{RealTime: hfsc.Linear(600 * hfsc.Kbps), LinkShare: hfsc.Linear(1)})
	if err := s.Admissible(); err != nil {
		t.Fatalf("600k of 1M should fit: %v", err)
	}
	s.AddClass(nil, "b", hfsc.ClassConfig{RealTime: hfsc.Linear(600 * hfsc.Kbps), LinkShare: hfsc.Linear(1)})
	if err := s.Admissible(); err == nil {
		t.Fatal("1.2M of 1M accepted")
	}
	// Without LinkRate the check must refuse rather than claim fit.
	s2 := hfsc.New(hfsc.Config{})
	if err := s2.Admissible(); err == nil {
		t.Fatal("admissibility without LinkRate should error")
	}
}

func TestDelayBound(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps})
	rt, _ := hfsc.ForRealTime(160, 5*time.Millisecond, 8*hfsc.Kbps)
	d, err := s.DelayBound(rt, 160, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// 5 ms to deliver 160 B, + 1500 B @ 10 Mb/s = 1.2 ms.
	if d < 5*time.Millisecond || d > 7*time.Millisecond {
		t.Fatalf("bound %v want ~6.2ms", d)
	}
	if _, err := s.DelayBound(hfsc.SC{}, 100, 1500); err == nil {
		t.Fatal("zero curve should error")
	}
}

func TestCurveConstructor(t *testing.T) {
	sc := hfsc.Curve(2*hfsc.Mbps, 10*time.Millisecond, hfsc.Mbps)
	if !sc.IsConcave() {
		t.Fatal("expected concave")
	}
	if sc.D != 10_000_000 {
		t.Fatalf("D=%d", sc.D)
	}
}

func TestDequeueNMatchesDequeue(t *testing.T) {
	build := func() *hfsc.Scheduler {
		s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps})
		a, _ := s.AddClass(nil, "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(6 * hfsc.Mbps)})
		b, _ := s.AddClass(nil, "b", hfsc.ClassConfig{LinkShare: hfsc.Linear(4 * hfsc.Mbps)})
		for i := 0; i < 10; i++ {
			s.Offer(&hfsc.Packet{Len: 1000, Class: a.ID()}, 0)
			s.Offer(&hfsc.Packet{Len: 500, Class: b.ID()}, 0)
		}
		return s
	}
	one, batch := build(), build()

	out := make([]*hfsc.Packet, 0, 8)
	now := int64(0)
	for batch.Backlog() > 0 {
		out = batch.DequeueN(now, 8, out[:0])
		if len(out) == 0 {
			t.Fatal("DequeueN returned nothing with backlog and no upper limits")
		}
		for _, p := range out {
			q := one.Dequeue(now)
			if q == nil || q.Class != p.Class || q.Len != p.Len {
				t.Fatalf("batch/single divergence: %v vs %v", p, q)
			}
		}
		now += 1_000_000
	}
	if one.Backlog() != 0 {
		t.Fatalf("single-packet scheduler still has %d queued", one.Backlog())
	}
	// max <= 0 or empty scheduler: no packets, out untouched semantics.
	if got := batch.DequeueN(now, 8, out[:0]); len(got) != 0 {
		t.Fatalf("drained scheduler returned %d packets", len(got))
	}
}
