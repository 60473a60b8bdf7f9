// Package conformance is the datapath conformance/bounds harness: it
// drives both datapaths — the H-FSC core (BackendHFSC) and, through
// BackendAuto on link-sharing-only trees, the HLS fast path — through
// the same randomized hierarchies and arrival traces and checks them
// against packet-level oracles —
//
//   - conservation and per-class FIFO, always: every accepted packet
//     departs exactly once, in arrival order within its class;
//   - work conservation: a saturating burst drains in exactly the link's
//     busy period;
//   - link-sharing fairness, against the fluid-flow reference of
//     internal/fluid: cumulative per-leaf service tracks the idealized
//     model within a packetization tolerance (the paper's Fig. 2/3
//     shapes);
//   - delay bounds, on real-time hierarchies (which BackendAuto must
//     hand to the core): observed per-packet delay never exceeds the
//     network-calculus bound computed by internal/netcalc from the
//     empirical arrival envelope.
//
// The harness runs from `make conformance` (and CI); the randomized
// cases are seeded, so failures reproduce.
package conformance

import (
	"fmt"
	"math/rand"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/fluid"
	"github.com/netsched/hfsc/internal/netcalc"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/sim"
)

// Node is one class in a hierarchy spec: an index-addressed tree so the
// same spec can be replayed into either datapath (or the fluid simulator).
type Node struct {
	Parent int // index into Hierarchy.Nodes; -1 = link root
	// Weight is the link-sharing rate (bytes/s). All specs carry one.
	Weight uint64
	// RealTime / UpperLimit are optional curves for guarantee-carrying
	// runs; zero means absent.
	RealTime   hfsc.SC
	UpperLimit hfsc.SC
}

// Hierarchy is a replayable class-tree spec. Leaves are the nodes no
// other node names as parent.
type Hierarchy struct {
	Nodes []Node
}

// Leaves returns the indices of the leaf nodes.
func (h *Hierarchy) Leaves() []int {
	interior := make([]bool, len(h.Nodes))
	for _, n := range h.Nodes {
		if n.Parent >= 0 {
			interior[n.Parent] = true
		}
	}
	var out []int
	for i := range h.Nodes {
		if !interior[i] {
			out = append(out, i)
		}
	}
	return out
}

// Random generates a pure link-sharing hierarchy of n classes with the
// given maximum interior depth. Parents always precede children.
func Random(rng *rand.Rand, n, maxDepth int) *Hierarchy {
	h := &Hierarchy{Nodes: make([]Node, n)}
	depth := make([]int, n)
	for i := range h.Nodes {
		parent, d := -1, 1
		if i > 0 && rng.Intn(3) > 0 { // ~2/3 nested, 1/3 top-level
			p := rng.Intn(i)
			if depth[p] < maxDepth {
				parent, d = p, depth[p]+1
			}
		}
		depth[i] = d
		h.Nodes[i] = Node{Parent: parent, Weight: uint64(1+rng.Intn(64)) * 125_000}
	}
	return h
}

// Build replays the spec into a scheduler with the given backend and
// returns the scheduler plus the class id of each node (indexed like
// Nodes). LinkRate is recorded for admission/bound computation.
func (h *Hierarchy) Build(kind hfsc.BackendKind, linkRate uint64) (*hfsc.Scheduler, []int, error) {
	return h.BuildConfig(hfsc.Config{LinkRate: linkRate, Backend: kind})
}

// BuildConfig replays the spec into a scheduler with an arbitrary
// configuration — e.g. Config.Audit on, so the online guarantee auditor
// can be cross-validated against the harness's packet-level oracles.
func (h *Hierarchy) BuildConfig(cfg hfsc.Config) (*hfsc.Scheduler, []int, error) {
	s := hfsc.New(cfg)
	ids := make([]int, len(h.Nodes))
	cls := make([]*hfsc.Class, len(h.Nodes))
	for i, n := range h.Nodes {
		var parent *hfsc.Class
		if n.Parent >= 0 {
			parent = cls[n.Parent]
		}
		c, err := s.AddClass(parent, fmt.Sprintf("c%d", i), hfsc.ClassConfig{
			RealTime:   n.RealTime,
			LinkShare:  hfsc.Linear(n.Weight),
			UpperLimit: n.UpperLimit,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", i, err)
		}
		cls[i], ids[i] = c, c.ID()
	}
	return s, ids, nil
}

// Fluid replays the spec into the idealized fluid simulator (link-sharing
// curves only — the fluid model is the FSC reference).
func (h *Hierarchy) Fluid(sampleEvery int64) (*fluid.Sim, []*fluid.Class, error) {
	f := fluid.New(sampleEvery)
	cls := make([]*fluid.Class, len(h.Nodes))
	for i, n := range h.Nodes {
		parent := f.Root()
		if n.Parent >= 0 {
			parent = cls[n.Parent]
		}
		c, err := f.AddClass(parent, fmt.Sprintf("c%d", i), hfsc.Linear(n.Weight))
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", i, err)
		}
		cls[i] = c
	}
	return f, cls, nil
}

// RandomTrace produces n arrivals across the given classes over roughly
// span ns: bursty on/off per class, packet lengths in [64, maxLen].
func RandomTrace(rng *rand.Rand, classes []int, n int, span int64, maxLen int) []sim.Arrival {
	tr := make([]sim.Arrival, 0, n)
	for len(tr) < n {
		cl := classes[rng.Intn(len(classes))]
		at := rng.Int63n(span)
		burst := 1 + rng.Intn(8)
		for b := 0; b < burst && len(tr) < n; b++ {
			tr = append(tr, sim.Arrival{
				At:    at,
				Len:   64 + rng.Intn(maxLen-63),
				Class: cl,
			})
			at += rng.Int63n(span / int64(n) * 4)
		}
	}
	sim.SortArrivals(tr)
	return tr
}

// CheckConservationFIFO verifies every accepted packet departed exactly
// once and that departures within one class respect arrival (injection)
// order. It returns a descriptive error on the first violation.
func CheckConservationFIFO(res *sim.Result) error {
	if got, want := len(res.Departed), res.Offered-res.Drops; got != want {
		return fmt.Errorf("conservation: %d departed, %d accepted (%d offered − %d dropped)",
			got, want, res.Offered, res.Drops)
	}
	last := map[int]*pktq.Packet{}
	for i, p := range res.Departed {
		if prev := last[p.Class]; prev != nil {
			if p.Seq <= prev.Seq {
				return fmt.Errorf("fifo: class %d departed seq %d after seq %d (pos %d)",
					p.Class, p.Seq, prev.Seq, i)
			}
		}
		last[p.Class] = p
	}
	return nil
}

// CheckBusyPeriod verifies work conservation on a saturating burst: all
// packets arrive at t=0, so a work-conserving scheduler must finish in
// exactly the sum of per-packet transmission times (each rounded up, as
// the link does). slack allows for the final NextReady hop granularity.
func CheckBusyPeriod(res *sim.Result, rate uint64, slack int64) error {
	var busy, drained int64
	for _, p := range res.Departed {
		busy += sim.TxTime(p.Len, rate)
		if p.Depart > drained {
			drained = p.Depart
		}
	}
	if drained > busy+slack {
		return fmt.Errorf("work conservation: burst drained at %d ns, busy period is %d ns",
			drained, busy)
	}
	return nil
}

// ServiceTotals sums departed work per class id up to horizon (ns).
func ServiceTotals(res *sim.Result, horizon int64) map[int]int64 {
	tot := map[int]int64{}
	for _, p := range res.Departed {
		if p.Depart <= horizon {
			tot[p.Class] += int64(p.Len)
		}
	}
	return tot
}

// CheckAgainstFluid compares packetized per-leaf service against the
// fluid reference at the horizon. tolFrac is the allowed relative error
// and tolAbs the absolute floor (packetization granularity, a few max
// packets).
func CheckAgainstFluid(got map[int]int64, ids []int, fcls []*fluid.Class, leaves []int, tolFrac float64, tolAbs int64) error {
	for _, li := range leaves {
		want := fcls[li].Total()
		g := float64(got[ids[li]])
		tol := want * tolFrac
		if tol < float64(tolAbs) {
			tol = float64(tolAbs)
		}
		if g < want-tol || g > want+tol {
			return fmt.Errorf("fairness: leaf %d served %.0f, fluid reference %.0f (tol %.0f)",
				li, g, want, tol)
		}
	}
	return nil
}

// CheckDelayBounds verifies, for each class carrying a real-time curve,
// that no packet's observed delay exceeded the network-calculus bound
// derived from its empirical arrival envelope — Theorem 2's real-time
// guarantee.
func CheckDelayBounds(h *Hierarchy, ids []int, trace []sim.Arrival, res *sim.Result, linkRate uint64, lmax int) error {
	byClass := map[int][]sim.Arrival{}
	for _, a := range trace {
		byClass[a.Class] = append(byClass[a.Class], a)
	}
	intervals := []int64{100_000, 1_000_000, 5_000_000, 10_000_000, 50_000_000, 200_000_000}
	for i, n := range h.Nodes {
		if n.RealTime.IsZero() {
			continue
		}
		id := ids[i]
		env := netcalc.EnvelopeOf(byClass[id], intervals)
		bound := env.DelayBound(n.RealTime, linkRate, lmax)
		for _, p := range res.Departed {
			if p.Class != id {
				continue
			}
			if d := p.Depart - p.Arrival; d > bound {
				return fmt.Errorf("delay bound: class %d (node %d) saw %d ns, bound %d ns",
					id, i, d, bound)
			}
		}
	}
	return nil
}
