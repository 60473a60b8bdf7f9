package hfsc

// Dynamic class lifecycle: template matching and auto-creation, idle
// collection with grace, equivalence of a collected-then-recreated class
// with a never-removed one, live curve updates under backlog, and churn
// stress on the concurrent drivers.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTemplateMatching(t *testing.T) {
	s := New(Config{LinkRate: 100 * Mbps})
	if _, err := s.AddClass(nil, "tenants", ClassConfig{LinkShare: Linear(50 * Mbps)}); err != nil {
		t.Fatal(err)
	}
	s.SetTemplate("", ClassTemplate{Class: ClassConfig{LinkShare: Linear(Mbps)}})
	s.SetTemplate("tenant/", ClassTemplate{
		Parent: "tenants",
		Class:  ClassConfig{LinkShare: Linear(2 * Mbps)},
	})
	s.SetTemplate("tenant/vip-", ClassTemplate{
		Parent: "tenants",
		Make: func(name string) (ClassConfig, bool) {
			if name == "tenant/vip-banned" {
				return ClassConfig{}, false
			}
			return ClassConfig{LinkShare: Linear(10 * Mbps)}, true
		},
	})

	// Catch-all: created under the root.
	misc, err := s.EnsureClass("misc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if misc.Parent() != s.Root() {
		t.Error("catch-all template created off the root")
	}
	// Prefix match: created under the named parent.
	a, err := s.EnsureClass("tenant/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parent() != s.Class("tenants") {
		t.Error("prefix template ignored its Parent")
	}
	if a.c.FSC() != Linear(2*Mbps) {
		t.Errorf("tenant/a FSC = %+v, want the tenant/ template's curve", a.c.FSC())
	}
	// Longest prefix wins.
	vip, err := s.EnsureClass("tenant/vip-x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if vip.c.FSC() != Linear(10*Mbps) {
		t.Errorf("tenant/vip-x FSC = %+v, want the vip template's curve", vip.c.FSC())
	}
	// Make refusal.
	if _, err := s.EnsureClass("tenant/vip-banned", 0); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("refused name: err = %v, want ErrUnknownTemplate", err)
	}
	// Existing classes are returned as-is, template untouched.
	if again, _ := s.EnsureClass("tenant/a", 0); again != a {
		t.Error("EnsureClass re-created an existing class")
	}
	// Replacing a template by prefix takes effect for later creations.
	s.SetTemplate("tenant/", ClassTemplate{
		Parent: "tenants",
		Class:  ClassConfig{LinkShare: Linear(3 * Mbps)},
	})
	b, err := s.EnsureClass("tenant/b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.c.FSC() != Linear(3*Mbps) {
		t.Errorf("tenant/b FSC = %+v, want the replaced template's curve", b.c.FSC())
	}

	// No matching template at all.
	bare := New(Config{LinkRate: 100 * Mbps})
	if _, err := bare.EnsureClass("anything", 0); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("no templates: err = %v, want ErrUnknownTemplate", err)
	}
	// Missing parent.
	bare.SetTemplate("", ClassTemplate{Parent: "nope", Class: ClassConfig{LinkShare: Linear(Mbps)}})
	if _, err := bare.EnsureClass("anything", 0); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("missing parent: err = %v, want ErrUnknownClass", err)
	}
}

func TestCollectIdleGrace(t *testing.T) {
	const grace = 100 * time.Millisecond
	var collected []string
	s := New(Config{LinkRate: 100 * Mbps})
	s.SetTemplate("t/", ClassTemplate{
		Class: ClassConfig{LinkShare: Linear(Mbps)},
		Grace: grace,
		OnCollect: func(name string, id int) {
			collected = append(collected, fmt.Sprintf("%s#%d", name, id))
		},
	})
	// Untracked: template without grace.
	s.SetTemplate("keep/", ClassTemplate{Class: ClassConfig{LinkShare: Linear(Mbps)}})

	cl, err := s.EnsureClass("t/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	firstID := cl.ID()
	if _, err := s.EnsureClass("keep/x", 0); err != nil {
		t.Fatal(err)
	}

	// Serve one packet, then scan while the activity is fresh: the scan
	// observes the counter delta and restarts the idle clock.
	if r := s.Offer(&Packet{Len: 100, Class: cl.ID()}, 0); r != DropNone {
		t.Fatalf("offer: %v", r)
	}
	if p := s.Dequeue(0); p == nil {
		t.Fatal("dequeue")
	}
	at := int64(50 * time.Millisecond)
	if n := s.CollectIdle(at); n != 0 {
		t.Fatalf("collected %d classes while active", n)
	}
	// Not yet idle for a full grace since the last activity scan.
	if n := s.CollectIdle(at + int64(grace) - 1); n != 0 {
		t.Fatal("collected before the grace elapsed")
	}
	// Grace elapsed: collected, callback fired, registries clean.
	if n := s.CollectIdle(at + int64(grace)); n != 1 {
		t.Fatal("idle class not collected after its grace")
	}
	if want := []string{fmt.Sprintf("t/a#%d", firstID)}; len(collected) != 1 || collected[0] != want[0] {
		t.Fatalf("OnCollect saw %v, want %v", collected, want)
	}
	if s.Class("t/a") != nil {
		t.Fatal("collected class still resolvable by name")
	}
	if _, ok := s.ClassID("t/a"); ok {
		t.Fatal("collected class still in the lock-free name registry")
	}
	// The untracked class survives arbitrary idleness.
	if s.Class("keep/x") == nil {
		t.Fatal("untracked class was collected")
	}

	// Re-creation starts fresh under a new id.
	cl2, err := s.EnsureClass("t/a", at+int64(grace))
	if err != nil {
		t.Fatal(err)
	}
	if cl2.ID() == firstID {
		t.Fatal("recreated class reused the retired id")
	}

	// A backlogged class is never collected, no matter how stale.
	if r := s.Offer(&Packet{Len: 100, Class: cl2.ID()}, at+int64(grace)); r != DropNone {
		t.Fatalf("offer: %v", r)
	}
	if n := s.CollectIdle(at + 100*int64(grace)); n != 0 {
		t.Fatal("collected a backlogged class")
	}
}

// A class that is garbage-collected and later re-created must schedule
// exactly like one that sat idle and was never removed: an idle period
// re-anchors the runtime curves anyway, so outside the grace window the
// two histories are indistinguishable. Golden-trace comparison of the
// two runs, including a competing link-sharing class.
func TestCollectRecreateEquivalence(t *testing.T) {
	const (
		rate = 10 * Mbps
		pkt  = 1000 // bytes
	)
	run := func(collect bool) []string {
		s := New(Config{LinkRate: rate})
		s.SetTemplate("t/", ClassTemplate{
			Class: ClassConfig{
				RealTime:  Curve(2*Mbps, 5*time.Millisecond, 1*Mbps),
				LinkShare: Linear(1 * Mbps),
			},
			Grace: time.Second,
		})
		bg, err := s.AddClass(nil, "bg", ClassConfig{LinkShare: Linear(1 * Mbps)})
		if err != nil {
			t.Fatal(err)
		}
		nameOf := map[int]string{bg.ID(): "bg"}
		ensure := func(now int64) {
			cl, err := s.EnsureClass("t/a", now)
			if err != nil {
				t.Fatal(err)
			}
			nameOf[cl.ID()] = "t/a"
		}
		var trace []string
		submit := func(name string, n int, now int64) {
			id, ok := s.ClassID(name)
			if !ok {
				t.Fatalf("no class %q", name)
			}
			for i := 0; i < n; i++ {
				if r := s.Offer(&Packet{Len: pkt, Class: id}, now); r != DropNone {
					t.Fatalf("offer %s: %v", name, r)
				}
			}
		}
		drain := func(now int64) int64 {
			for s.Backlog() > 0 {
				if ready, ok := s.NextReady(now); ok && ready > now {
					now = ready
				}
				p := s.Dequeue(now)
				if p == nil {
					now += int64(time.Millisecond)
					continue
				}
				trace = append(trace, fmt.Sprintf("%s@%d", nameOf[p.Class], now/int64(time.Microsecond)))
				now += int64(pkt) * int64(time.Second) / int64(rate) // wire time
			}
			return now
		}

		// Phase 1: both classes compete.
		ensure(0)
		submit("t/a", 5, 0)
		submit("bg", 5, 0)
		now := drain(0)

		// Idle well past the grace; one run collects, the other just sits.
		// The first scan only observes the phase-1 activity delta and arms
		// the idle clock; the second, a full grace later, collects.
		now += 2 * int64(time.Second)
		if collect {
			if n := s.CollectIdle(now); n != 0 {
				t.Fatalf("first scan collected %d classes, want 0", n)
			}
		}
		now += 2 * int64(time.Second)
		if collect {
			if n := s.CollectIdle(now); n != 1 {
				t.Fatalf("collected %d classes, want 1", n)
			}
		}

		// Phase 2: the tenant returns (re-created in the collecting run),
		// then the background class.
		ensure(now)
		submit("t/a", 5, now)
		now = drain(now)
		now += int64(time.Millisecond)
		submit("bg", 5, now)
		drain(now)
		return trace
	}

	kept, collected := run(false), run(true)
	if len(kept) != len(collected) {
		t.Fatalf("trace lengths differ: kept %d, collected %d", len(kept), len(collected))
	}
	for i := range kept {
		if kept[i] != collected[i] {
			t.Errorf("trace[%d]: kept %s, collected %s", i, kept[i], collected[i])
		}
	}
}

// Live SetCurves on a backlogged class must never break conservation or
// the scheduler's internal invariants: every accepted packet is served
// exactly once, per-class FIFO order holds, and CheckInvariants stays
// clean after every curve change.
func TestLiveSetCurvesConservation(t *testing.T) {
	s := New(Config{LinkRate: 10 * Mbps})
	cfgs := []ClassConfig{
		{RealTime: Curve(2*Mbps, 10*time.Millisecond, 1*Mbps), LinkShare: Linear(1 * Mbps)},
		{LinkShare: Linear(2 * Mbps)},
		{LinkShare: Linear(1 * Mbps), UpperLimit: Linear(4 * Mbps)},
	}
	var classes []*Class
	for i, cfg := range cfgs {
		cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, cl)
	}

	// Parameter variants per class, same curve presence throughout.
	variants := func(i, round int) ClassConfig {
		k := uint64(1 + (round % 3)) // scale 1x..3x
		switch i {
		case 0:
			return ClassConfig{
				RealTime:  Curve(k*2*Mbps, time.Duration(5+round%10)*time.Millisecond, k*Mbps),
				LinkShare: Linear(k * Mbps),
			}
		case 1:
			return ClassConfig{LinkShare: Linear(k * 2 * Mbps)}
		default:
			return ClassConfig{LinkShare: Linear(k * Mbps), UpperLimit: Linear((k + 3) * Mbps)}
		}
	}

	const perClass = 100
	var seq uint64
	now := int64(0)
	lastSeq := map[int]uint64{}
	served := 0
	for i := 0; i < perClass; i++ {
		for _, cl := range classes {
			seq++
			if r := s.Offer(&Packet{Len: 500, Class: cl.ID(), Seq: seq}, now); r != DropNone {
				t.Fatalf("offer: %v", r)
			}
		}
	}
	for round := 0; s.Backlog() > 0; round++ {
		if ready, ok := s.NextReady(now); ok && ready > now {
			now = ready
		}
		if p := s.Dequeue(now); p != nil {
			served++
			if last := lastSeq[p.Class]; p.Seq <= last {
				t.Fatalf("class %d FIFO violated: seq %d after %d", p.Class, p.Seq, last)
			}
			lastSeq[p.Class] = p.Seq
			now += int64(p.Len) * int64(time.Second) / int64(10*Mbps)
		} else {
			now += int64(time.Millisecond)
		}
		// Swap curves on a rotating backlogged class every few services.
		if round%3 == 0 {
			i := (round / 3) % len(classes)
			if err := s.SetCurves(classes[i], variants(i, round), now); err != nil {
				t.Fatalf("live SetCurves round %d: %v", round, err)
			}
			if err := s.core.CheckInvariants(); err != nil {
				t.Fatalf("invariants after live SetCurves round %d: %v", round, err)
			}
		}
	}
	if served != perClass*len(classes) {
		t.Fatalf("served %d packets, want %d (conservation)", served, perClass*len(classes))
	}

	// Changing which curves are set needs a passive class.
	seq++
	if r := s.Offer(&Packet{Len: 500, Class: classes[1].ID(), Seq: seq}, now); r != DropNone {
		t.Fatalf("offer: %v", r)
	}
	err := s.SetCurves(classes[1], ClassConfig{
		RealTime:  Linear(Mbps),
		LinkShare: Linear(Mbps),
	}, now)
	if !errors.Is(err, ErrClassBusy) {
		t.Fatalf("presence change on a busy class: err = %v, want ErrClassBusy", err)
	}
}

// testQueue builds a queue of cfg.Shards shards: the one-shard case
// through NewPacedQueue, the others through NewMultiQueue.
func testQueue(t *testing.T, cfg MultiConfig, transmit func(*Packet)) *PacedQueue {
	t.Helper()
	var q *PacedQueue
	var err error
	if cfg.Shards == 1 {
		q, err = NewPacedQueue(New(cfg.Config), transmit)
	} else {
		q, err = NewMultiQueue(cfg, transmit)
	}
	if err != nil {
		t.Fatal(err)
	}
	if q.NumShards() != cfg.Shards {
		t.Fatalf("NumShards = %d, want %d", q.NumShards(), cfg.Shards)
	}
	return q
}

// runChurn hammers a driver with traffic to numClasses distinct class
// names while an admin goroutine removes and retunes random classes and
// the GC collects idle ones, then verifies conservation (accepted ==
// transmitted + rejected) and per-class FIFO.
func runChurn(t *testing.T, d *PacedQueue, numClasses int,
	accepted, transmitted, rejected *atomic.Uint64) {
	t.Helper()
	const (
		workers  = 8
		perBurst = 3
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var seq uint64
			for j := 0; j < numClasses/workers; j++ {
				name := fmt.Sprintf("t/w%d-%d", w, j)
				for k := 0; k < perBurst; k++ {
					seq++
					p := GetPacket()
					p.Len = 200
					p.Seq = seq
					switch r := d.SubmitTo(name, p); r {
					case DropNone:
						accepted.Add(1)
					case DropIntakeFull, DropUnknownClass:
						p.Release()
					default:
						p.Release()
						t.Errorf("SubmitTo(%s): %v", name, r)
						return
					}
				}
			}
		}(w)
	}
	// Admin churn: remove, retune, and collect concurrently with traffic.
	adminDone := make(chan struct{})
	go func() {
		defer close(adminDone)
		for i := 0; ; i++ {
			name := fmt.Sprintf("t/w%d-%d", i%8, i%(numClasses/8))
			switch i % 3 {
			case 0:
				if err := d.RemoveClass(name); err != nil &&
					!errors.Is(err, ErrUnknownClass) && !errors.Is(err, ErrClassBusy) {
					t.Errorf("RemoveClass(%s): %v", name, err)
				}
			case 1:
				if err := d.SetCurves(name, ClassConfig{LinkShare: Linear(2 * Mbps)}); err != nil &&
					!errors.Is(err, ErrUnknownClass) {
					t.Errorf("SetCurves(%s): %v", name, err)
				}
			default:
				d.CollectIdle()
			}
			if i >= numClasses/2 {
				return
			}
		}
	}()
	wg.Wait()
	<-adminDone

	// Every accepted packet must resolve to a transmit or a rejection.
	deadline := time.Now().Add(10 * time.Second)
	for transmitted.Load()+rejected.Load() < accepted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("conservation: accepted %d, transmitted %d, rejected %d",
				accepted.Load(), transmitted.Load(), rejected.Load())
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if got, want := transmitted.Load()+rejected.Load(), accepted.Load(); got != want {
		t.Fatalf("conservation after stop: served+rejected %d, accepted %d", got, want)
	}
}

// TestPacedQueueChurn runs the churn stress on one shard and on four.
func TestPacedQueueChurn(t *testing.T) {
	for _, tc := range []struct{ shards, classes, short int }{{1, 10000, 1000}, {4, 4000, 800}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			numClasses := tc.classes
			if testing.Short() {
				numClasses = tc.short
			}
			var accepted, transmitted, rejected atomic.Uint64
			// Transmit may run on several pacing goroutines; class ids are
			// never reused, so the per-class FIFO check keys a sync.Map.
			var lastSeq sync.Map
			var fifoErr atomic.Value
			q := testQueue(t, MultiConfig{
				Config: Config{
					LinkRate: 100 * Gbps, // fast enough to drain everything promptly
					AutoClass: &ClassTemplate{
						Class: ClassConfig{LinkShare: Linear(Mbps)},
						Grace: 5 * time.Millisecond,
					},
				},
				Shards: tc.shards,
			}, func(p *Packet) {
				if v, ok := lastSeq.Load(p.Class); ok && p.Seq <= v.(uint64) {
					fifoErr.CompareAndSwap(nil, fmt.Errorf("class %d: seq %d after %d", p.Class, p.Seq, v))
				}
				lastSeq.Store(p.Class, p.Seq)
				transmitted.Add(1)
				p.Release()
			})
			q.OnReject = func(p *Packet, _ DropReason) {
				rejected.Add(1)
				p.Release()
			}
			q.Start()
			runChurn(t, q, numClasses, &accepted, &transmitted, &rejected)
			if err := fifoErr.Load(); err != nil {
				t.Fatalf("per-class FIFO violated: %v", err)
			}
			t.Logf("accepted=%d transmitted=%d rejected=%d", accepted.Load(), transmitted.Load(), rejected.Load())
		})
	}
}

// Multi-shard admin sentinels and template routing: live add via
// EnsureClass lands on the owning shard, SetCurves applies there, and
// the sentinel errors are errors.Is-able.
func TestMultiQueueLifecycleSentinels(t *testing.T) {
	m, err := NewMultiQueue(MultiConfig{
		Config: Config{LinkRate: Gbps},
		Shards: 2,
	}, func(p *Packet) { p.Release() })
	if err != nil {
		t.Fatal(err)
	}
	m.SetTemplate("t/", ClassTemplate{Class: ClassConfig{LinkShare: Linear(Mbps)}})
	m.Start()
	defer m.Stop()

	id, err := m.EnsureClass("t/a")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := m.EnsureClass("t/a"); again != id {
		t.Error("EnsureClass re-created an existing class")
	}
	if _, err := m.EnsureClass("untemplated"); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("EnsureClass off-template: err = %v, want ErrUnknownTemplate", err)
	}
	if err := m.SetCurves("t/a", ClassConfig{LinkShare: Linear(2 * Mbps)}); err != nil {
		t.Errorf("live SetCurves: %v", err)
	}
	if err := m.SetCurves("ghost", ClassConfig{LinkShare: Linear(Mbps)}); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("SetCurves(ghost): err = %v, want ErrUnknownClass", err)
	}
	// A parent with children refuses removal with ErrHasChildren.
	if _, err := m.AddClass("", "p", ClassConfig{LinkShare: Linear(10 * Mbps)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddClass("p", "p/kid", ClassConfig{LinkShare: Linear(Mbps)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddClass("ghost", "orphan", ClassConfig{LinkShare: Linear(Mbps)}); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("AddClass under a missing parent: err = %v, want ErrUnknownClass", err)
	}
	if err := m.RemoveClass("p"); !errors.Is(err, ErrHasChildren) {
		t.Errorf("RemoveClass(parent): err = %v, want ErrHasChildren", err)
	}
	if err := m.RemoveClass("p/kid"); err != nil {
		t.Errorf("RemoveClass(leaf): %v", err)
	}
	if err := m.RemoveClass("p"); err != nil {
		t.Errorf("RemoveClass(emptied parent): %v", err)
	}
	// Correct by name.
	if err := m.CorrectClass("t/a", 100, 50, ByLinkShare); err != nil {
		t.Errorf("CorrectClass: %v", err)
	}
	if err := m.CorrectClass("ghost", 100, 50, ByLinkShare); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("CorrectClass(ghost): err = %v, want ErrUnknownClass", err)
	}
}

// The pacing loop's own collection scans must resume for a class enrolled
// after the last tracked class was collected: the scan that empties the
// registry must not schedule the next one out of reach.
func TestPacedQueueCollectsAfterRegistryEmpties(t *testing.T) {
	s := New(Config{LinkRate: 100 * Mbps})
	s.SetTemplate("t/", ClassTemplate{
		Class: ClassConfig{LinkShare: Linear(Mbps)},
		Grace: 5 * time.Millisecond,
	})
	q, err := NewPacedQueue(s, func(p *Packet) { p.Release() })
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	for cycle := 0; cycle < 3; cycle++ {
		if _, err := q.EnsureClass("t/a"); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := q.ClassID("t/a"); !ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: idle class never collected by the pacing loop", cycle)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
