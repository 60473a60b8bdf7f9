package hfsc

import (
	"errors"
	"testing"
	"time"
)

func backendPkt(class, length int) *Packet {
	return &Packet{Class: class, Len: length}
}

// TestBackendHLSFairness: the HLS datapath BackendAuto runs on a
// link-sharing-only tree serves link-sharing weights fairly and keeps the
// registry view (names, Stats) working.
func TestBackendHLSFairness(t *testing.T) {
	s := New(Config{Backend: BackendAuto})
	if got := s.Backend(); got != "hls" {
		t.Fatalf("Backend() = %q, want hls", got)
	}
	a, err := s.AddClass(nil, "a", ClassConfig{LinkShare: Linear(1 * Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddClass(nil, "b", ClassConfig{LinkShare: Linear(3 * Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if r := s.Offer(backendPkt(a.ID(), 1000), 0); r != DropNone {
			t.Fatalf("offer a: %v", r)
		}
		if r := s.Offer(backendPkt(b.ID(), 1000), 0); r != DropNone {
			t.Fatalf("offer b: %v", r)
		}
	}
	served := map[int]int{}
	for i := 0; i < 4000; i++ {
		p := s.Dequeue(0)
		if p == nil {
			t.Fatal("nil dequeue with backlog")
		}
		if p.Crit != ByLinkShare {
			t.Fatalf("crit = %v, want ByLinkShare", p.Crit)
		}
		served[p.Class]++
	}
	ratio := float64(served[b.ID()]) / float64(served[a.ID()])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %.2f, want ~3", ratio)
	}
	// The registry folds backend counters into Stats.
	st := a.Stats()
	if st.SentPackets != uint64(served[a.ID()]) {
		t.Errorf("Stats.SentPackets = %d, want %d", st.SentPackets, served[a.ID()])
	}
	if st.QueuedPackets != 4000-served[a.ID()] {
		t.Errorf("Stats.QueuedPackets = %d, want %d", st.QueuedPackets, 4000-served[a.ID()])
	}
	if want := int64(1000 * (4000 - served[a.ID()])); st.QueuedBytes != want {
		t.Errorf("Stats.QueuedBytes = %d, want %d", st.QueuedBytes, want)
	}
	if s.Backlog() != 8000-4000 {
		t.Errorf("Backlog = %d, want 4000", s.Backlog())
	}
}

// TestBackendHLSRefusesRealTime: while the fast path holds packets, a
// class needing guarantees it cannot carry is refused with ErrBackendBusy
// and leaves no half-registered state behind.
func TestBackendHLSRefusesRealTime(t *testing.T) {
	s := New(Config{Backend: BackendAuto})
	rt, err := ForRealTime(1500, 10*time.Millisecond, 2*Mbps)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := s.AddClass(nil, "ls", ClassConfig{LinkShare: Linear(1 * Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Offer(backendPkt(ls.ID(), 1000), 0); r != DropNone {
		t.Fatalf("offer: %v", r)
	}
	_, err = s.AddClass(nil, "rt", ClassConfig{RealTime: rt, LinkShare: Linear(2 * Mbps)})
	if !errors.Is(err, ErrBackendBusy) {
		t.Fatalf("err = %v, want ErrBackendBusy", err)
	}
	if s.Class("rt") != nil || len(s.Classes()) != 2 {
		t.Fatal("refused class leaked into the registry")
	}
	if _, ok := s.ClassID("rt"); ok {
		t.Fatal("refused class leaked into the lock-free name registry")
	}
	// Same for gaining a curve via SetCurves: the class keeps its curves
	// and the fast path keeps serving it.
	err = s.SetCurves(ls, ClassConfig{RealTime: rt, LinkShare: Linear(1 * Mbps)}, 0)
	if !errors.Is(err, ErrBackendBusy) {
		t.Fatalf("SetCurves err = %v, want ErrBackendBusy", err)
	}
	if got := s.Backend(); got != "hls" {
		t.Fatalf("Backend() after refusals = %q, want hls", got)
	}
	if p := s.Dequeue(0); p == nil || p.Class != ls.ID() {
		t.Fatal("fast path lost the queued packet")
	}
}

// TestBackendAutoSwitches: BackendAuto runs HLS while the hierarchy is
// pure link-sharing, flips to the core when a real-time class arrives on
// an idle scheduler, refuses the flip under backlog, and returns to the
// fast path when the last curved class goes away.
func TestBackendAutoSwitches(t *testing.T) {
	s := New(Config{Backend: BackendAuto})
	if got := s.Backend(); got != "hls" {
		t.Fatalf("initial Backend() = %q, want hls", got)
	}
	ls, err := s.AddClass(nil, "ls", ClassConfig{LinkShare: Linear(1 * Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := ForRealTime(1500, 10*time.Millisecond, 2*Mbps)

	// Backlogged: the switch is refused, nothing changes.
	if r := s.Offer(backendPkt(ls.ID(), 1000), 0); r != DropNone {
		t.Fatalf("offer: %v", r)
	}
	_, err = s.AddClass(nil, "rt", ClassConfig{RealTime: rt, LinkShare: Linear(2 * Mbps)})
	if !errors.Is(err, ErrBackendBusy) {
		t.Fatalf("err = %v, want ErrBackendBusy", err)
	}
	if got := s.Backend(); got != "hls" {
		t.Fatalf("Backend() after refused switch = %q, want hls", got)
	}

	// Drained: the same add flips the datapath to the core.
	if p := s.Dequeue(0); p == nil || p.Class != ls.ID() {
		t.Fatal("drain dequeue failed")
	}
	rtc, err := s.AddClass(nil, "rt", ClassConfig{RealTime: rt, LinkShare: Linear(2 * Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Backend(); got != "hfsc" {
		t.Fatalf("Backend() with RT class = %q, want hfsc", got)
	}

	// The core path serves real-time traffic normally.
	if r := s.Offer(backendPkt(rtc.ID(), 1000), 0); r != DropNone {
		t.Fatalf("offer rt: %v", r)
	}
	p := s.Dequeue(0)
	if p == nil || p.Crit != ByRealTime {
		t.Fatalf("dequeue = %+v, want real-time criterion", p)
	}

	// Removing the only curved class returns to the fast path, with the
	// surviving link-sharing class rebuilt into it.
	if err := s.RemoveClass(rtc); err != nil {
		t.Fatal(err)
	}
	if got := s.Backend(); got != "hls" {
		t.Fatalf("Backend() after RT removal = %q, want hls", got)
	}
	if r := s.Offer(backendPkt(ls.ID(), 1000), 0); r != DropNone {
		t.Fatalf("offer on rebuilt fast path: %v", r)
	}
	if p := s.Dequeue(0); p == nil || p.Class != ls.ID() {
		t.Fatal("rebuilt fast path lost the class")
	}

	// SetCurves dropping the RT curve also re-resolves (add RT back first).
	rtc2, err := s.AddClass(nil, "rt2", ClassConfig{RealTime: rt, LinkShare: Linear(2 * Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Backend(); got != "hfsc" {
		t.Fatalf("Backend() = %q, want hfsc", got)
	}
	if err := s.SetCurves(rtc2, ClassConfig{LinkShare: Linear(2 * Mbps)}, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Backend(); got != "hls" {
		t.Fatalf("Backend() after curve drop = %q, want hls", got)
	}
}

// TestBackendHTBCeil: HTB's rate/ceil configuration, expressed on the
// default core as a link-sharing plus an upper-limit curve, caps service
// at the ceil, and NextReady stays usable while the capped queue is
// backlogged — for a capped leaf, and for uncapped leaves under a capped
// parent.
func TestBackendHTBCeil(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *Scheduler) ([]*Class, error)
	}{
		{"leaf", func(s *Scheduler) ([]*Class, error) {
			c, err := s.AddClass(nil, "capped", ClassConfig{
				LinkShare:  Linear(10 * Mbps),
				UpperLimit: Linear(20 * Mbps),
			})
			return []*Class{c}, err
		}},
		{"parent", func(s *Scheduler) ([]*Class, error) {
			p, err := s.AddClass(nil, "capped", ClassConfig{
				LinkShare:  Linear(10 * Mbps),
				UpperLimit: Linear(20 * Mbps),
			})
			if err != nil {
				return nil, err
			}
			a, err := s.AddClass(p, "a", ClassConfig{LinkShare: Linear(5 * Mbps)})
			if err != nil {
				return nil, err
			}
			b, err := s.AddClass(p, "b", ClassConfig{LinkShare: Linear(5 * Mbps)})
			return []*Class{a, b}, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			if got := s.Backend(); got != "hfsc" {
				t.Fatalf("Backend() = %q, want hfsc", got)
			}
			leaves, err := tc.build(s)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5000; i++ {
				s.Offer(backendPkt(leaves[i%len(leaves)].ID(), 1000), 0)
			}
			var served int64
			now := int64(0)
			for now < 100_000_000 { // 100 ms
				p := s.Dequeue(now)
				if p == nil {
					next, ok := s.NextReady(now)
					if !ok || next <= now {
						t.Fatalf("backlogged with no usable NextReady at %d", now)
					}
					now = next
					continue
				}
				served += int64(p.Len)
			}
			// 20 Mbps = 2.5 MB/s → 250 KB in 100 ms, plus the packet in flight.
			if served > 260_000 {
				t.Errorf("ceil violated: %d bytes in 100ms", served)
			}
			if served < 220_000 {
				t.Errorf("capped class starved: %d bytes in 100ms", served)
			}
		})
	}
}

// TestBackendLifecycle: template auto-create and idle collection work on
// the fast path — activity marks come from its counters.
func TestBackendLifecycle(t *testing.T) {
	s := New(Config{
		Backend: BackendAuto,
		AutoClass: &ClassTemplate{
			Class: ClassConfig{LinkShare: Linear(1 * Mbps)},
			Grace: 10 * time.Millisecond,
		},
	})
	now := int64(0)
	c, err := s.EnsureClass("tenant-1", now)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Offer(backendPkt(c.ID(), 1000), now); r != DropNone {
		t.Fatalf("offer: %v", r)
	}
	// Queued: never collected, no matter how long.
	now += int64(time.Second)
	if n := s.CollectIdle(now); n != 0 {
		t.Fatalf("collected %d with a queued packet", n)
	}
	if p := s.Dequeue(now); p == nil {
		t.Fatal("dequeue failed")
	}
	// Serving counts as activity: the first scan after it re-arms idle.
	if n := s.CollectIdle(now); n != 0 {
		t.Fatalf("collected %d right after service", n)
	}
	// Idle past grace: collected.
	now += int64(time.Second)
	if n := s.CollectIdle(now); n != 1 {
		t.Fatalf("collected %d, want 1", n)
	}
	if s.Class("tenant-1") != nil {
		t.Fatal("collected class still resolvable")
	}
	// Metrics snapshot path stays functional on the fast path.
	s2 := New(Config{Backend: BackendAuto, Metrics: true})
	c2, _ := s2.AddClass(nil, "m", ClassConfig{LinkShare: Linear(1 * Mbps)})
	s2.Offer(backendPkt(c2.ID(), 700), 0)
	s2.Dequeue(0)
	snap := s2.Snapshot()
	if snap == nil {
		t.Fatal("nil snapshot")
	}
	cs := c2.Metrics()
	if cs.SentPacketsLS != 1 || cs.EnqueuedPackets != 1 {
		t.Fatalf("metrics sentLS=%d enq=%d, want 1/1", cs.SentPacketsLS, cs.EnqueuedPackets)
	}
}

// TestBackendAutoIntrospection: on the fast path, Class.Stats and DumpTree
// count the packets HLS holds and has served exactly as the core path
// counts the same traffic — leaves and, for subtree totals, their parent
// and the root.
func TestBackendAutoIntrospection(t *testing.T) {
	type counters struct {
		total, ls        int64
		sent             uint64
		queued           int
		queuedBytes      int64
		statsQueuedBytes int64
		statsQueued      int
	}
	run := func(kind BackendKind) map[string]counters {
		s := New(Config{Backend: kind})
		p, err := s.AddClass(nil, "p", ClassConfig{LinkShare: Linear(2 * Mbps)})
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.AddClass(p, "a", ClassConfig{LinkShare: Linear(1 * Mbps)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if r := s.Offer(backendPkt(a.ID(), 1000), 0); r != DropNone {
				t.Fatalf("%v offer: %v", kind, r)
			}
		}
		if p := s.Dequeue(0); p == nil {
			t.Fatalf("%v: nil dequeue with backlog", kind)
		}
		out := map[string]counters{}
		for _, row := range s.DumpTree().Shards[0].Classes {
			c := counters{total: row.TotalBytes, ls: row.LinkShareBytes, sent: row.SentPackets,
				queued: row.QueuedPackets, queuedBytes: row.QueuedBytes}
			if cl := s.Class(row.Name); cl != nil {
				st := cl.Stats()
				c.statsQueued, c.statsQueuedBytes = st.QueuedPackets, st.QueuedBytes
			}
			out[row.Name] = c
		}
		return out
	}
	core, fast := run(BackendHFSC), run(BackendAuto)
	want := counters{total: 1000, ls: 1000, sent: 1, queued: 2, queuedBytes: 2000, statsQueuedBytes: 2000, statsQueued: 2}
	if core["a"] != want {
		t.Fatalf("core leaf counters = %+v, want %+v", core["a"], want)
	}
	if len(fast) != len(core) {
		t.Fatalf("fast path DumpTree has %d rows, core %d", len(fast), len(core))
	}
	for name, c := range core {
		if fast[name] != c {
			t.Errorf("class %q: fast path counters %+v, core %+v", name, fast[name], c)
		}
	}
}
