package pfq_test

import (
	"testing"

	"github.com/netsched/hfsc/internal/pfq"
	"github.com/netsched/hfsc/internal/sim"
)

const (
	mbps = uint64(125_000)
	ms   = int64(1_000_000)
	sec  = int64(1_000_000_000)
)

func greedy(class, pktLen int, rate uint64, start, end int64) []sim.Arrival {
	var out []sim.Arrival
	interval := sim.TxTime(pktLen, rate) / 2
	if interval < 1 {
		interval = 1
	}
	for at := start; at < end; at += interval {
		out = append(out, sim.Arrival{At: at, Len: pktLen, Class: class})
	}
	return out
}

func cbr(class, pktLen int, interval, start, end int64) []sim.Arrival {
	var out []sim.Arrival
	for at := start; at < end; at += interval {
		out = append(out, sim.Arrival{At: at, Len: pktLen, Class: class})
	}
	return out
}

func merged(traces ...[]sim.Arrival) []sim.Arrival {
	var all []sim.Arrival
	for _, tr := range traces {
		all = append(all, tr...)
	}
	sim.SortArrivals(all)
	return all
}

func classBytes(res *sim.Result, from, to int64) map[int]int64 {
	out := map[int]int64{}
	for _, p := range res.Departed {
		if p.Depart > from && p.Depart <= to {
			out[p.Class] += int64(p.Len)
		}
	}
	return out
}

func TestAddNodeValidation(t *testing.T) {
	h := pfq.New(pfq.WF2Q, 0)
	if _, err := h.AddNode(nil, "zero", 0); err == nil {
		t.Error("zero weight accepted")
	}
	n, err := h.AddNode(nil, "a", 100)
	if err != nil || n.Weight() != 100 || !n.IsLeaf() {
		t.Fatalf("AddNode: %v", err)
	}
	c, err := h.AddNode(n, "b", 50)
	if err != nil || c.Parent() != n || n.IsLeaf() {
		t.Fatalf("child AddNode: %v", err)
	}
}

func testFlatShares(t *testing.T, algo pfq.Algo) {
	t.Helper()
	h := pfq.New(algo, 0)
	a, _ := h.AddNode(nil, "a", uint64(3*mbps))
	b, _ := h.AddNode(nil, "b", uint64(mbps))
	trace := merged(
		greedy(a.ID(), 1000, 8*mbps, 0, 400*ms),
		greedy(b.ID(), 700, 8*mbps, 0, 400*ms),
	)
	res := sim.RunTrace(h, 4*mbps, trace, 400*ms)
	got := classBytes(res, 50*ms, 400*ms)
	ratio := float64(got[a.ID()]) / float64(got[b.ID()])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("algo %d: ratio %.2f want ~3", algo, ratio)
	}
}

func TestWF2QFlatShares(t *testing.T) { testFlatShares(t, pfq.WF2Q) }
func TestSFQFlatShares(t *testing.T)  { testFlatShares(t, pfq.SFQ) }

func TestHierarchicalShares(t *testing.T) {
	for _, algo := range []pfq.Algo{pfq.WF2Q, pfq.SFQ} {
		h := pfq.New(algo, 10)
		orgA, _ := h.AddNode(nil, "orgA", 5)
		orgB, _ := h.AddNode(nil, "orgB", 5)
		a1, _ := h.AddNode(orgA, "a1", 3)
		a2, _ := h.AddNode(orgA, "a2", 2)
		b1, _ := h.AddNode(orgB, "b1", 5)
		trace := merged(
			greedy(a1.ID(), 1000, 20*mbps, 0, 400*ms),
			greedy(a2.ID(), 1000, 20*mbps, 0, 200*ms),
			greedy(b1.ID(), 1000, 20*mbps, 0, 400*ms),
		)
		res := sim.RunTrace(h, 10*mbps, trace, 600*ms)
		p1 := classBytes(res, 50*ms, 200*ms)
		if r := float64(p1[a1.ID()]) / float64(p1[a2.ID()]); r < 1.3 || r > 1.7 {
			t.Errorf("algo %d phase1 a1/a2 = %.2f want ~1.5", algo, r)
		}
		if r := float64(p1[a1.ID()]+p1[a2.ID()]) / float64(p1[b1.ID()]); r < 0.85 || r > 1.15 {
			t.Errorf("algo %d phase1 orgA/orgB = %.2f want ~1.0", algo, r)
		}
		// After a2 idles, a1 inherits org A's whole share.
		p2 := classBytes(res, 280*ms, 400*ms)
		if r := float64(p2[a1.ID()]) / float64(p2[b1.ID()]); r < 0.85 || r > 1.15 {
			t.Errorf("algo %d phase2 a1/b1 = %.2f want ~1.0", algo, r)
		}
	}
}

func TestWF2QWorkConserving(t *testing.T) {
	h := pfq.New(pfq.WF2Q, 0)
	a, _ := h.AddNode(nil, "a", 1)
	b, _ := h.AddNode(nil, "b", 1000) // extreme weight skew
	trace := merged(
		greedy(a.ID(), 1000, 4*mbps, 0, 100*ms),
		cbr(b.ID(), 1000, 50*ms, 0, 100*ms), // b mostly idle
	)
	res := sim.RunTrace(h, 2*mbps, trace, sec)
	// a must absorb the idle capacity: link busy whenever backlogged.
	var bytes int64
	for _, p := range res.Departed {
		bytes += int64(p.Len)
	}
	last := res.Departed[len(res.Departed)-1].Depart
	if bytes < int64(2*mbps)*last/sec*98/100 {
		t.Fatalf("link idled: %d bytes in %d ns", bytes, last)
	}
}

func TestWF2QDelayBoundForSmallWeightFlow(t *testing.T) {
	// A CBR flow sending within its weight share has bounded delay under
	// WF2Q+ even with greedy competition.
	h := pfq.New(pfq.WF2Q, 0)
	voice, _ := h.AddNode(nil, "voice", uint64(8000))    // 64 Kb/s worth
	data, _ := h.AddNode(nil, "data", uint64(1_242_000)) // the rest of 10 Mb/s
	trace := merged(
		cbr(voice.ID(), 160, 20*ms, 0, sec), // exactly 8 KB/s
		greedy(data.ID(), 1500, 12*mbps, 0, sec),
	)
	res := sim.RunTrace(h, 10*mbps, trace, 2*sec)
	var worst int64
	for _, p := range res.Departed {
		if p.Class != voice.ID() {
			continue
		}
		if d := p.Depart - p.Arrival; d > worst {
			worst = d
		}
	}
	// WF2Q+ delay bound ~ L/r_i + Lmax/R = 160B/8KBps + 1500B/10Mbps
	// = 20ms + 1.2ms; allow rounding slack.
	bound := 22 * ms
	if worst > bound {
		t.Fatalf("voice delay %.2fms exceeds WFQ bound %.2fms", float64(worst)/1e6, float64(bound)/1e6)
	}
	// And crucially it CANNOT be much below ~L/r: the delay is coupled to
	// the rate (the limitation H-FSC removes). Check it exceeds 10 ms.
	if worst < 10*ms {
		t.Fatalf("voice delay %.2fms suspiciously low for WF2Q+ (coupling should bind)", float64(worst)/1e6)
	}
}
