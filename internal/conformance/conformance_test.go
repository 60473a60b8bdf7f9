package conformance

import (
	"math/rand"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/netcalc"
	"github.com/netsched/hfsc/internal/sim"
)

// simLink drives a Scheduler through the simulator's link model, whose
// Enqueue is Offer collapsed to a bool.
type simLink struct{ *hfsc.Scheduler }

func (l simLink) Enqueue(p *hfsc.Packet, now int64) bool { return l.Offer(p, now) == hfsc.DropNone }

// allBackends are the datapath selections the harness drives; every one
// must hold conservation and per-class FIFO on arbitrary link-sharing
// hierarchies. BackendAuto runs those on the HLS fast path, so both
// datapaths are covered.
var allBackends = []hfsc.BackendKind{hfsc.BackendHFSC, hfsc.BackendAuto}

// TestConformanceRandomized drives every backend through the same
// randomized hierarchies and arrival traces: conservation and per-class
// FIFO must hold universally.
func TestConformanceRandomized(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	packets := 4000
	if testing.Short() {
		seeds = seeds[:3]
		packets = 1500
	}
	const linkRate = 12_500_000 // 100 Mbit/s
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		h := Random(rng, n, 3)
		leaves := h.Leaves()
		// One shared trace per seed: identical arrivals into every backend.
		span := int64(50 * time.Millisecond)
		classSlots := make([]int, len(leaves))
		copy(classSlots, leaves)
		traceSpec := RandomTrace(rng, classSlots, packets, span, 1500)
		for _, kind := range allBackends {
			s, ids, err := h.Build(kind, linkRate)
			if err != nil {
				t.Fatalf("seed %d %v: build: %v", seed, kind, err)
			}
			// The spec trace addresses node indices; remap to class ids.
			trace := make([]sim.Arrival, len(traceSpec))
			for i, a := range traceSpec {
				trace[i] = a
				trace[i].Class = ids[a.Class]
			}
			res := sim.RunTrace(simLink{s}, linkRate, trace, 0)
			if err := CheckConservationFIFO(res); err != nil {
				t.Errorf("seed %d %v: %v", seed, kind, err)
			}
			if s.Backlog() != 0 {
				t.Errorf("seed %d %v: %d packets stranded", seed, kind, s.Backlog())
			}
		}
	}
}

// TestConformanceWorkConservation: a saturating t=0 burst must drain in
// exactly the link's busy period on every datapath (both are work
// conserving on hierarchies without upper limits).
func TestConformanceWorkConservation(t *testing.T) {
	const linkRate = 12_500_000
	rng := rand.New(rand.NewSource(42))
	h := Random(rng, 16, 3)
	leaves := h.Leaves()
	var trace []sim.Arrival
	for i := 0; i < 3000; i++ {
		trace = append(trace, sim.Arrival{
			At: 0, Len: 64 + rng.Intn(1437), Class: leaves[i%len(leaves)],
		})
	}
	for _, kind := range allBackends {
		s, ids, err := h.Build(kind, linkRate)
		if err != nil {
			t.Fatalf("%v: build: %v", kind, err)
		}
		mapped := make([]sim.Arrival, len(trace))
		for i, a := range trace {
			mapped[i] = a
			mapped[i].Class = ids[a.Class]
		}
		res := sim.RunTrace(simLink{s}, linkRate, mapped, 0)
		if err := CheckConservationFIFO(res); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
		// Slack: one NextReady retry hop plus per-packet ceil rounding.
		if err := CheckBusyPeriod(res, linkRate, int64(len(trace))+1000); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// TestConformanceFairnessShapes is the paper's Fig. 2 link-sharing shape
// against the fluid reference: two agencies split the link 50/25/25 at
// the leaves; every backend's cumulative service must track the fluid
// model within packetization tolerance while all leaves stay saturated.
func TestConformanceFairnessShapes(t *testing.T) {
	const (
		linkRate = 12_500_000
		pktLen   = 1000
		horizon  = int64(100 * time.Millisecond)
	)
	// Leaf rates sum to the link rate.
	h := &Hierarchy{Nodes: []Node{
		{Parent: -1, Weight: linkRate * 3 / 4}, // agency A
		{Parent: -1, Weight: linkRate / 4},     // agency B
		{Parent: 0, Weight: linkRate / 2},      // A1: 50% of link
		{Parent: 0, Weight: linkRate / 4},      // A2: 25%
		{Parent: 1, Weight: linkRate / 4},      // B1: 25%
	}}
	leaves := []int{2, 3, 4}

	// Saturation: more than the link can serve within the horizon, per leaf.
	perLeaf := int(int64(linkRate) * horizon / int64(time.Second) / pktLen)
	var trace []sim.Arrival
	for _, li := range leaves {
		for i := 0; i < perLeaf; i++ {
			trace = append(trace, sim.Arrival{At: 0, Len: pktLen, Class: li})
		}
	}

	// Fluid reference: the same hierarchy and offered load.
	f, fcls, err := h.Fluid(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range leaves {
		f.Arrive(fcls[li], 0, float64(perLeaf*pktLen))
	}
	f.Run(linkRate, horizon)

	for _, kind := range allBackends {
		s, ids, err := h.Build(kind, linkRate)
		if err != nil {
			t.Fatalf("%v: build: %v", kind, err)
		}
		mapped := make([]sim.Arrival, len(trace))
		for i, a := range trace {
			mapped[i] = a
			mapped[i].Class = ids[a.Class]
		}
		res := sim.RunTrace(simLink{s}, linkRate, mapped, 0)
		got := ServiceTotals(res, horizon)
		if err := CheckAgainstFluid(got, ids, fcls, leaves, 0.05, 10*pktLen); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// TestConformanceDelayBounds: observed per-packet delay must stay within
// the network-calculus bound of each class's empirical envelope — even
// with a saturating link-sharing class competing. BackendAuto must resolve
// a real-time hierarchy to the core rather than the fast path.
func TestConformanceDelayBounds(t *testing.T) {
	const (
		linkRate = 10_000_000 // 10 MB/s
		lmax     = 1500
	)
	rt := func(dmax time.Duration) hfsc.SC {
		sc, err := hfsc.ForRealTime(lmax, dmax, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	h := &Hierarchy{Nodes: []Node{
		{Parent: -1, Weight: 2_000_000, RealTime: rt(5 * time.Millisecond)},
		{Parent: -1, Weight: 2_000_000, RealTime: rt(20 * time.Millisecond)},
		{Parent: -1, Weight: 6_000_000}, // link-sharing bulk
	}}

	// Conforming CBR sources for the real-time classes (1500 B every
	// 750 µs = 2 MB/s), plus a saturating bulk class.
	var trace []sim.Arrival
	span := int64(200 * time.Millisecond)
	for node := 0; node < 2; node++ {
		for at := int64(0); at < span; at += 750_000 {
			trace = append(trace, sim.Arrival{At: at, Len: lmax, Class: node})
		}
	}
	for i := 0; i < 2500; i++ {
		trace = append(trace, sim.Arrival{At: 0, Len: 1200, Class: 2})
	}
	sim.SortArrivals(trace)

	for _, kind := range []hfsc.BackendKind{hfsc.BackendHFSC, hfsc.BackendAuto} {
		s, ids, err := h.Build(kind, linkRate)
		if err != nil {
			t.Fatalf("%v: build: %v", kind, err)
		}
		if got := s.Backend(); got != "hfsc" {
			t.Fatalf("%v resolved to %q, want the core for RT curves", kind, got)
		}
		if err := s.Admissible(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		mapped := make([]sim.Arrival, len(trace))
		for i, a := range trace {
			mapped[i] = a
			mapped[i].Class = ids[a.Class]
		}
		res := sim.RunTrace(simLink{s}, linkRate, mapped, 0)
		if err := CheckConservationFIFO(res); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
		if err := CheckDelayBounds(h, ids, mapped, res, linkRate, lmax); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// TestConformanceAuditOracle cross-validates the online guarantee auditor
// (Config.Audit) against the harness's packet-level oracles: on a
// conforming run the auditor must report zero violations for every
// guaranteed class and its observed delay maximum must stay within the
// network-calculus bound; on the same load served deliberately late it
// must detect the lateness and attribute it to the scheduler.
func TestConformanceAuditOracle(t *testing.T) {
	const (
		linkRate = 10_000_000
		lmax     = 1500
	)
	rt := func(dmax time.Duration) hfsc.SC {
		sc, err := hfsc.ForRealTime(lmax, dmax, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	h := &Hierarchy{Nodes: []Node{
		{Parent: -1, Weight: 2_000_000, RealTime: rt(5 * time.Millisecond)},
		{Parent: -1, Weight: 2_000_000, RealTime: rt(20 * time.Millisecond)},
		{Parent: -1, Weight: 6_000_000}, // link-sharing bulk
	}}

	var trace []sim.Arrival
	span := int64(200 * time.Millisecond)
	for node := 0; node < 2; node++ {
		for at := int64(0); at < span; at += 750_000 {
			trace = append(trace, sim.Arrival{At: at, Len: lmax, Class: node})
		}
	}
	for i := 0; i < 2500; i++ {
		trace = append(trace, sim.Arrival{At: 0, Len: 1200, Class: 2})
	}
	sim.SortArrivals(trace)

	s, ids, err := h.BuildConfig(hfsc.Config{LinkRate: linkRate, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	mapped := make([]sim.Arrival, len(trace))
	for i, a := range trace {
		mapped[i] = a
		mapped[i].Class = ids[a.Class]
	}
	res := sim.RunTrace(simLink{s}, linkRate, mapped, 0)
	if err := CheckConservationFIFO(res); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelayBounds(h, ids, mapped, res, linkRate, lmax); err != nil {
		t.Fatal(err)
	}
	snap := s.AuditSnapshot()
	if snap == nil {
		t.Fatal("Config.Audit produced no audit snapshot")
	}
	if got := snap.Verdict(); got != hfsc.VerdictOK {
		t.Errorf("conforming run: link verdict %v, want ok", got)
	}
	byClass := map[int][]sim.Arrival{}
	for _, a := range mapped {
		byClass[a.Class] = append(byClass[a.Class], a)
	}
	intervals := []int64{100_000, 1_000_000, 5_000_000, 10_000_000, 50_000_000, 200_000_000}
	for i, n := range h.Nodes {
		if n.RealTime.IsZero() {
			continue
		}
		ca, ok := snap.Class(ids[i])
		if !ok {
			t.Fatalf("node %d: no audit state", i)
		}
		if !ca.Guaranteed {
			t.Errorf("node %d: auditor did not see the real-time curve", i)
		}
		if ca.Violations != 0 {
			t.Errorf("node %d: conforming run produced %d violations (by cause %v)",
				i, ca.Violations, ca.ViolationsByCause)
		}
		if ca.Checks == 0 {
			t.Errorf("node %d: auditor ran no conformance checks", i)
		}
		// The packet-level oracle: the auditor's observed delay maximum
		// (arrival → dequeue) must sit within the network-calculus bound
		// computed from the class's empirical envelope.
		env := netcalc.EnvelopeOf(byClass[ids[i]], intervals)
		bound := env.DelayBound(n.RealTime, linkRate, lmax)
		if ca.DelayMaxNs > bound {
			t.Errorf("node %d: auditor delay max %d ns exceeds netcalc bound %d ns", i, ca.DelayMaxNs, bound)
		}
	}

	// Injected lateness: the same conforming real-time arrivals are
	// enqueued on time, but the link stalls and serves everything 100 ms
	// after the last arrival. The auditor must catch it and blame the
	// scheduler (the sender conformed; nothing was deferred or corrected).
	s2, ids2, err := h.BuildConfig(hfsc.Config{LinkRate: linkRate, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for at := int64(0); at < span; at += 750_000 {
		if r := s2.Offer(&hfsc.Packet{Len: lmax, Class: ids2[0], Arrival: at}, at); r != hfsc.DropNone {
			t.Fatalf("offer at %d refused: %v", at, r)
		}
	}
	now := span + int64(100*time.Millisecond)
	for s2.Backlog() > 0 {
		if p := s2.Dequeue(now); p == nil {
			t.Fatalf("stalled drain: no packet at %d with backlog %d", now, s2.Backlog())
		}
		now += int64(time.Millisecond)
	}
	late, ok := s2.AuditSnapshot().Class(ids2[0])
	if !ok {
		t.Fatal("stalled class: no audit state")
	}
	if late.Violations == 0 {
		t.Fatal("injected lateness went undetected")
	}
	if late.Violations != late.ViolationsByCause[hfsc.CauseSchedulerLate] {
		t.Errorf("injected lateness misattributed: %d violations, by cause %v",
			late.Violations, late.ViolationsByCause)
	}
	if late.Verdict != hfsc.VerdictViolated {
		t.Errorf("stalled class verdict %v, want violated", late.Verdict)
	}
	if late.WorstLateNs < int64(50*time.Millisecond) {
		t.Errorf("worst lateness %d ns does not reflect the 100 ms stall", late.WorstLateNs)
	}
}
