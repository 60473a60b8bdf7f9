package audit

import (
	"math/rand"
	"testing"
	"time"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
)

// harness builds a one-leaf core scheduler with the auditor attached and
// returns the leaf class.
func harness(t *testing.T, rt curve.SC, a *Auditor) (*core.Scheduler, *core.Class) {
	t.Helper()
	s := core.New(core.Options{Tracer: a})
	cl, err := s.AddClass(nil, "leaf", rt, curve.Linear(1000), curve.SC{})
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	return s, cl
}

const msec = int64(time.Millisecond)

// TestConformingRunNoViolations drives a leaf exactly at its curve rate
// through a real scheduler: every check must pass and the verdict stay OK.
func TestConformingRunNoViolations(t *testing.T) {
	a := New(1_000_000)
	rt := curve.Linear(1_000_000) // 1 MB/s => 1500 B every 1.5 ms
	s, cl := harness(t, rt, a)

	now := int64(0)
	for i := 0; i < 200; i++ {
		p := &pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}
		if !s.Enqueue(p, now) {
			t.Fatalf("enqueue %d refused", i)
		}
		if q := s.Dequeue(now); q == nil {
			t.Fatalf("dequeue %d returned nil", i)
		}
		now += 1500 * msec / 1000 // exactly the curve's pace
	}
	snap := a.Snapshot()
	c, ok := snap.Class(cl.ID())
	if !ok {
		t.Fatal("class missing from audit snapshot")
	}
	if c.Checks == 0 {
		t.Fatal("no checks recorded")
	}
	if c.Violations != 0 {
		t.Fatalf("conforming run produced %d violations (by cause %v)", c.Violations, c.ViolationsByCause)
	}
	if c.Verdict != VerdictOK {
		t.Fatalf("verdict = %v, want ok", c.Verdict)
	}
	if !c.Guaranteed {
		t.Fatal("leaf with RT curve not marked guaranteed")
	}
	if c.MinMarginNs == curve.Inf || c.MinMarginNs < 0 {
		t.Fatalf("windowed margin = %d, want finite non-negative", c.MinMarginNs)
	}
}

// TestLateServiceAttributedToScheduler feeds a conforming source but
// serves it far slower than the curve: violations must appear and be
// attributed to genuine scheduler lateness.
func TestLateServiceAttributedToScheduler(t *testing.T) {
	a := New(1_000_000)
	rt := curve.Linear(1_000_000)
	s, cl := harness(t, rt, a)

	now := int64(0)
	for i := 0; i < 50; i++ {
		p := &pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}
		s.Enqueue(p, now)
		now += 1500 * msec / 1000
		// Serve at a tenth of the promised rate: depart 15 ms after the
		// fluid deadline, far past any allowance.
		s.Dequeue(now + 15*msec)
	}
	snap := a.Snapshot()
	c, _ := snap.Class(cl.ID())
	if c.Violations == 0 {
		t.Fatal("late service produced no violations")
	}
	if got := c.ViolationsByCause[CauseSchedulerLate]; got != c.Violations {
		t.Fatalf("violations not attributed to the scheduler: %v", c.ViolationsByCause)
	}
	if c.WorstLateNs <= 0 {
		t.Fatalf("WorstLateNs = %d, want positive", c.WorstLateNs)
	}
	if c.Verdict != VerdictViolated {
		t.Fatalf("verdict = %v, want violated", c.Verdict)
	}
	if snap.Verdict() != VerdictViolated {
		t.Fatalf("merged verdict = %v, want violated", snap.Verdict())
	}
}

// TestNonConformingArrivalAttribution bursts far beyond the envelope: the
// resulting lateness must be blamed on the sender, not the scheduler.
func TestNonConformingArrivalAttribution(t *testing.T) {
	a := New(1_000_000)
	rt := curve.Linear(1_000_000)
	s, cl := harness(t, rt, a)
	a.SetBurst(cl.ID(), 1500) // one packet of instantaneous burst is conforming

	now := int64(0)
	// 40 packets at one instant: 60 kB against a curve that absorbs
	// 1.5 kB instantaneously.
	for i := 0; i < 40; i++ {
		s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}, now)
	}
	// Serve them slower than even the stretched deadlines require.
	for i := 0; i < 40; i++ {
		now += 15 * msec
		s.Dequeue(now)
	}
	snap := a.Snapshot()
	c, _ := snap.Class(cl.ID())
	if c.NonConformingPeriods == 0 {
		t.Fatal("burst not detected as non-conforming")
	}
	if c.Violations == 0 {
		t.Fatal("expected violations from the over-burst backlog")
	}
	if got := c.ViolationsByCause[CauseNonConformingArrival]; got != c.Violations {
		t.Fatalf("violations not attributed to the sender: %v", c.ViolationsByCause)
	}
	if c.ViolationsByCause[CauseSchedulerLate] != 0 {
		t.Fatal("scheduler blamed for a sender-side burst")
	}
}

// TestDropAttribution fills a queue-limited leaf: refusals must audit as
// drop-cause violations.
func TestDropAttribution(t *testing.T) {
	a := New(0)
	s := core.New(core.Options{Tracer: a, DefaultQueueLimit: 2})
	cl, err := s.AddClass(nil, "leaf", curve.Linear(1_000_000), curve.Linear(1000), curve.SC{})
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	for i := 0; i < 5; i++ {
		s.Enqueue(&pktq.Packet{Len: 100, Class: cl.ID()}, 0)
	}
	c, ok := a.ClassSnapshot(cl.ID())
	if !ok {
		t.Fatal("class missing")
	}
	if c.ViolationsByCause[CauseDrop] != 3 {
		t.Fatalf("drop violations = %d, want 3 (by cause %v)", c.ViolationsByCause[CauseDrop], c.ViolationsByCause)
	}
}

// TestCorrectionAttribution runs corrections during the busy period and
// then misses: the violation must be blamed on cost mis-estimation.
func TestCorrectionAttribution(t *testing.T) {
	a := New(1_000_000)
	rt := curve.Linear(1_000_000)
	s, cl := harness(t, rt, a)

	now := int64(0)
	s.Enqueue(&pktq.Packet{Cost: 1500, Len: 1, Class: cl.ID(), Arrival: now}, now)
	// Second arrival spaced inside the envelope so the period stays
	// conforming and the violation can only be blamed on the correction.
	s.Enqueue(&pktq.Packet{Cost: 1500, Len: 1, Class: cl.ID(), Arrival: now + 2*msec}, now+2*msec)
	p := s.Dequeue(now + 2*msec)
	if p == nil {
		t.Fatal("dequeue returned nil")
	}
	// The completed item really cost 10x its estimate.
	s.Correct(cl, 1500, 15000, p.Crit, now+2*msec)
	// The second item now departs very late.
	if q := s.Dequeue(now + 60*msec); q == nil {
		t.Fatal("second dequeue returned nil")
	}
	c, _ := a.ClassSnapshot(cl.ID())
	if c.Corrections == 0 {
		t.Fatal("correction not observed")
	}
	if c.ViolationsByCause[CauseCostCorrection] == 0 {
		t.Fatalf("late dequeue after correction not attributed to cost: %v", c.ViolationsByCause)
	}
}

// TestTickCatchesStalledBacklog: a class whose service stops entirely must
// be flagged by the periodic probe, and the eventual dequeue must not
// double-count the same packet.
func TestTickCatchesStalledBacklog(t *testing.T) {
	a := New(1_000_000)
	rt := curve.Linear(1_000_000)
	s, cl := harness(t, rt, a)

	now := int64(0)
	s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}, now)
	a.Tick(now + 50*msec) // nothing served; ~48.5 ms past the deadline
	c, _ := a.ClassSnapshot(cl.ID())
	if c.Violations != 1 {
		t.Fatalf("stalled backlog: violations = %d, want 1", c.Violations)
	}
	checksAfterTick := c.Checks

	// More ticks must not re-count the same stalled packet.
	a.Tick(now + 60*msec)
	a.Tick(now + 70*msec)
	c, _ = a.ClassSnapshot(cl.ID())
	if c.Violations != 1 || c.Checks != checksAfterTick {
		t.Fatalf("tick re-counted a stalled packet: checks %d→%d viols %d", checksAfterTick, c.Checks, c.Violations)
	}

	// Neither must the dequeue that finally pops it.
	s.Dequeue(now + 80*msec)
	c, _ = a.ClassSnapshot(cl.ID())
	if c.Violations != 1 {
		t.Fatalf("dequeue double-counted the stalled packet: %d violations", c.Violations)
	}
	if c.MinMarginNs >= 0 {
		t.Fatalf("windowed margin = %d, want negative", c.MinMarginNs)
	}
}

// TestBurnRateWindows places violations at different ages and checks the
// multi-resolution windows disagree accordingly.
func TestBurnRateWindows(t *testing.T) {
	a := New(0)
	rt := curve.Linear(1_000_000)
	s, cl := harness(t, rt, a)

	// One violated check 2 minutes ago, then clean traffic in the last
	// second: 5m burn > 0, 30s burn == 0... the clean traffic also keeps
	// the 1s burn at zero.
	now := int64(0)
	s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}, now)
	s.Dequeue(now + 50*msec) // violated

	base := int64(120) * int64(time.Second)
	for i := 0; i < 10; i++ {
		at := base + int64(i)*2*msec
		s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: at}, at)
		s.Dequeue(at + msec)
	}
	snap := a.Snapshot()
	c, _ := snap.Class(cl.ID())
	if c.BurnRate5m <= 0 {
		t.Fatalf("5m burn = %v, want > 0", c.BurnRate5m)
	}
	if c.BurnRate30s != 0 || c.BurnRate1s != 0 {
		t.Fatalf("recent burn = %v/%v, want 0/0", c.BurnRate1s, c.BurnRate30s)
	}
	if c.Verdict != VerdictAtRisk {
		t.Fatalf("verdict = %v, want at-risk", c.Verdict)
	}
}

// TestMergeRemapsAndSums merges two shard snapshots the way a PacedQueue
// does and checks ids, sums and the merged verdict.
func TestMergeRemapsAndSums(t *testing.T) {
	mk := func(late bool) *Snapshot {
		a := New(1_000_000)
		s, cl := harness(t, curve.Linear(1_000_000), a)
		now := int64(0)
		s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}, now)
		if late {
			s.Dequeue(now + 50*msec)
		} else {
			s.Dequeue(now + msec)
		}
		return a.Snapshot()
	}
	okSnap, badSnap := mk(false), mk(true)
	merged := Merge([]*Snapshot{okSnap, badSnap}, func(shard, id int) (int, bool) {
		return shard*100 + id, true
	})
	if len(merged.Classes) != 2 {
		t.Fatalf("merged %d classes, want 2", len(merged.Classes))
	}
	if merged.Classes[0].ID >= merged.Classes[1].ID {
		t.Fatal("merged classes not sorted by id")
	}
	if merged.Verdict() != VerdictViolated {
		t.Fatalf("merged verdict = %v, want violated", merged.Verdict())
	}
	var viols uint64
	for _, c := range merged.Classes {
		viols += c.Violations
	}
	if viols != 1 {
		t.Fatalf("merged violations = %d, want 1", viols)
	}
}

// TestLiveRetuneRecompilesCurve changes the class's curves mid-run and
// checks the auditor follows the new guarantee.
func TestLiveRetuneRecompilesCurve(t *testing.T) {
	a := New(10_000_000)
	s, cl := harness(t, curve.Linear(1_000_000), a)

	now := int64(0)
	s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}, now)
	s.Dequeue(now + msec)

	// Retune to 10x the rate; deadlines tighten accordingly.
	if err := s.SetCurves(cl, curve.Linear(10_000_000), curve.Linear(1000), curve.SC{}, now+10*msec); err != nil {
		t.Fatalf("SetCurves: %v", err)
	}
	at := now + 20*msec
	s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: at}, at)
	// 1500 B at 10 MB/s is owed in 150 µs; departing 10 ms late must now
	// violate where the old curve would have allowed it.
	s.Dequeue(at + 10*msec)
	c, _ := a.ClassSnapshot(cl.ID())
	if c.ViolationsByCause[CauseSchedulerLate] == 0 {
		t.Fatalf("retuned curve not enforced: %v", c.ViolationsByCause)
	}
}

// TestSteadyStateAllocFree: after warm-up, Trace must not allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	a := New(1_000_000)
	s, cl := harness(t, curve.Linear(1_000_000), a)
	now := int64(0)
	step := 1500 * msec / 1000
	// Warm up: create the per-class state and compile the curve.
	for i := 0; i < 64; i++ {
		s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID(), Arrival: now}, now)
		s.Dequeue(now)
		now += step
	}
	p := &pktq.Packet{Len: 1500, Class: cl.ID()}
	allocs := testing.AllocsPerRun(200, func() {
		p.Arrival = now
		a.Trace(core.EvEnqueue, cl, p, now, 0)
		a.Trace(core.EvDequeueRT, cl, p, now, msec)
		now += step
	})
	if allocs != 0 {
		t.Fatalf("steady-state Trace allocates %v per enqueue+dequeue, want 0", allocs)
	}
}

// TestDelayMaxCountsArrivalAtZero: clock 0 is a real arrival time, so a
// packet enqueued there and served 5 ms later has a 5 ms delay, exactly as
// it would one nanosecond later.
func TestDelayMaxCountsArrivalAtZero(t *testing.T) {
	for _, at := range []int64{0, 1} {
		a := New(1_000_000)
		s, cl := harness(t, curve.Linear(1_000_000), a)
		s.Enqueue(&pktq.Packet{Len: 1500, Class: cl.ID()}, at)
		s.Dequeue(at + 5*msec)
		if c, _ := a.ClassSnapshot(cl.ID()); c.DelayMaxNs != 5*msec {
			t.Fatalf("arrival at %d: DelayMaxNs = %d, want %d", at, c.DelayMaxNs, 5*msec)
		}
	}
}

// TestRetuneReanchorsBusyPeriod pins the rule for a curve retuned while
// the class is backlogged: the first enqueue that sees the new curve
// re-anchors the busy period at its own clock, with the work still queued
// as the new period's arrivals, so queued packets are owed by the new
// curve from that instant on.
func TestRetuneReanchorsBusyPeriod(t *testing.T) {
	a := New(10_000_000) // 1000 B of transmission slack: 100 µs
	s, cl := harness(t, curve.Linear(1_000_000), a)
	a.SetBurst(cl.ID(), 3000)
	for i := 0; i < 3; i++ {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: cl.ID()}, 0)
	}
	s.Dequeue(msec / 2)
	if err := s.SetCurves(cl, curve.Linear(100_000), curve.Linear(1000), curve.SC{}, msec); err != nil {
		t.Fatalf("SetCurves: %v", err)
	}
	// Re-anchored at 2 ms with 2000 B queued plus this 1000 B: the next
	// head is owed 1000 B into the new period, 2 ms + 10 ms.
	s.Enqueue(&pktq.Packet{Len: 1000, Class: cl.ID()}, 2*msec)
	s.Dequeue(15 * msec)
	c, _ := a.ClassSnapshot(cl.ID())
	if want := 12*msec + a.allow() - 15*msec; c.MinMarginEverNs != want {
		t.Fatalf("margin after the retune = %d, want %d (deadline 12 ms)", c.MinMarginEverNs, want)
	}
	if c.NonConformingPeriods != 0 || c.ViolationsByCause[CauseSchedulerLate] != 1 {
		t.Fatalf("re-anchored period: %d non-conforming, violations %v; want 0 and one scheduler-late",
			c.NonConformingPeriods, c.ViolationsByCause)
	}
}

// TestDeadlineRelMatchesInverse: past the knee, deadlineRel's one
// multiply and divide must be bit-exact with the curve's general Inverse
// everywhere it takes the fast path, as every check and stall probe
// relies on.
func TestDeadlineRelMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, cl := harness(t, curve.Linear(1), New(0))
	st := &classAudit{}
	for i := 0; i < 4000; i++ {
		sc := curve.SC{M1: uint64(rng.Int63n(1 << 34)), D: rng.Int63n(int64(time.Second)), M2: 1 + uint64(rng.Int63n(1<<34))}
		switch i % 4 {
		case 1:
			sc.M1 = 0
		case 2:
			sc.D = 0
		}
		if err := s.SetCurves(cl, sc, curve.Linear(1000), curve.SC{}, 0); err != nil {
			t.Fatalf("SetCurves %v: %v", sc, err)
		}
		st.refreshCurve(cl)
		for j := 0; j < 32; j++ {
			// Log-uniform offsets past the knee, up to the fast path's edge.
			dy := 1 + rng.Int63n(min(int64(1)<<rng.Intn(63), maxTailDY-1))
			y := st.kneeY + dy
			if got, want := st.deadlineRel(y), st.rsc.Inverse(y); got != want {
				t.Fatalf("%v: deadlineRel(%d) = %d, Inverse = %d", sc, y, got, want)
			}
		}
	}
}
