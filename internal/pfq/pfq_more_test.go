package pfq_test

import (
	"math/rand"
	"testing"

	"github.com/netsched/hfsc/internal/pfq"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/sim"
)

func TestSingleNodeIsFIFO(t *testing.T) {
	for _, algo := range []pfq.Algo{pfq.WF2Q, pfq.SFQ} {
		h := pfq.New(algo, 0)
		a, _ := h.AddNode(nil, "only", 1000)
		now := int64(0)
		for i := 0; i < 50; i++ {
			h.Enqueue(&pktq.Packet{Len: 100 + i, Class: a.ID(), Seq: uint64(i)}, now)
		}
		for i := 0; i < 50; i++ {
			p := h.Dequeue(now)
			if p == nil || p.Seq != uint64(i) {
				t.Fatalf("algo %d: out of order at %d", algo, i)
			}
		}
		if h.Dequeue(now) != nil {
			t.Fatalf("algo %d: phantom packet", algo)
		}
	}
}

func TestByteConservationUnderChurn(t *testing.T) {
	for _, algo := range []pfq.Algo{pfq.WF2Q, pfq.SFQ} {
		h := pfq.New(algo, 16)
		org, _ := h.AddNode(nil, "org", 10)
		l1, _ := h.AddNode(org, "l1", 6)
		l2, _ := h.AddNode(org, "l2", 4)
		l3, _ := h.AddNode(nil, "l3", 10)
		rng := rand.New(rand.NewSource(31))

		var offered, drops int64
		now := int64(0)
		var departed int64
		var seq uint64
		for step := 0; step < 20000; step++ {
			now += int64(rng.Intn(2000))
			if rng.Intn(2) == 0 {
				ids := []int{l1.ID(), l2.ID(), l3.ID()}
				p := &pktq.Packet{Len: rng.Intn(1400) + 64, Class: ids[rng.Intn(3)], Seq: seq}
				seq++
				offered += int64(p.Len)
				if !h.Enqueue(p, now) {
					drops += int64(p.Len)
				}
			} else if p := h.Dequeue(now); p != nil {
				departed += int64(p.Len)
			}
		}
		var queued int64
		for _, n := range h.Nodes() {
			if n.IsLeaf() {
				for p := h.Dequeue(now); p != nil; p = h.Dequeue(now) {
					departed += int64(p.Len)
				}
				_ = n
			}
		}
		if offered != departed+drops+queued {
			t.Fatalf("algo %d: conservation broken: %d != %d+%d+%d", algo, offered, departed, drops, queued)
		}
		if h.Backlog() != 0 {
			t.Fatalf("algo %d: backlog %d after drain", algo, h.Backlog())
		}
	}
}

// Randomized fairness property: under continuous backlog, windowed service
// tracks the weights within a few packets for any random weight vector.
func TestWF2QRandomWeightsFairness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		h := pfq.New(pfq.WF2Q, 0)
		n := 2 + rng.Intn(5)
		weights := make([]uint64, n)
		ids := make([]int, n)
		var total uint64
		for i := range weights {
			weights[i] = uint64(rng.Intn(900) + 100)
			total += weights[i]
			node, _ := h.AddNode(nil, "", weights[i])
			ids[i] = node.ID()
		}
		var traces [][]sim.Arrival
		for _, id := range ids {
			traces = append(traces, greedy(id, 1000, 8*mbps, 0, 400*ms))
		}
		res := sim.RunTrace(h, 4*mbps, merged(traces...), 400*ms)
		got := classBytes(res, 100*ms, 400*ms)
		var sum int64
		for _, id := range ids {
			sum += got[id]
		}
		for i, id := range ids {
			want := float64(sum) * float64(weights[i]) / float64(total)
			diff := float64(got[id]) - want
			if diff < 0 {
				diff = -diff
			}
			// Allow ~8 packets of slack over the window.
			if diff > 8000 {
				t.Fatalf("trial %d session %d: got %d want %.0f (weights %v)",
					trial, i, got[id], want, weights)
			}
		}
	}
}

// Interior nodes whose children all drain must cleanly deactivate and
// reactivate (regression guard for session state across backlog periods).
func TestHierarchyReactivation(t *testing.T) {
	h := pfq.New(pfq.WF2Q, 0)
	org, _ := h.AddNode(nil, "org", 10)
	leaf, _ := h.AddNode(org, "leaf", 10)
	other, _ := h.AddNode(nil, "other", 10)

	now := int64(0)
	for round := 0; round < 100; round++ {
		h.Enqueue(&pktq.Packet{Len: 500, Class: leaf.ID(), Seq: uint64(round)}, now)
		if round%3 == 0 {
			h.Enqueue(&pktq.Packet{Len: 500, Class: other.ID(), Seq: uint64(round)}, now)
		}
		for h.Backlog() > 0 {
			if h.Dequeue(now) == nil {
				t.Fatal("work-conserving scheduler stalled")
			}
		}
		now += int64(round+1) * 1000
	}
}

func TestEnqueueToInteriorPanics(t *testing.T) {
	h := pfq.New(pfq.WF2Q, 0)
	org, _ := h.AddNode(nil, "org", 10)
	if _, err := h.AddNode(org, "leaf", 10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("enqueue to interior should panic")
		}
	}()
	h.Enqueue(&pktq.Packet{Len: 1, Class: org.ID()}, 0)
}
