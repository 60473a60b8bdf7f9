package multi

import (
	"math/rand"
	"testing"
	"time"
)

func TestDefaultShardsBounds(t *testing.T) {
	n := DefaultShards()
	if n < 1 || n > MaxShards {
		t.Fatalf("DefaultShards() = %d, want within [1, %d]", n, MaxShards)
	}
	if n&(n-1) != 0 {
		t.Fatalf("DefaultShards() = %d, want a power of two", n)
	}
}

func TestPlacementBalancesFloorsAndCounts(t *testing.T) {
	place := func(p *Placement, guarantee uint64) int {
		s := p.Pick()
		p.Add(s, guarantee, true)
		return s
	}
	p := NewPlacement(2)
	if s := place(p, 500); s != 0 {
		t.Fatalf("first placement on shard %d, want 0", s)
	}
	if s := place(p, 100); s != 1 {
		t.Fatalf("second placement on shard %d, want 1 (least floor)", s)
	}
	// Shard 1 (floor 100) is lighter than shard 0 (floor 500).
	if s := place(p, 100); s != 1 {
		t.Fatalf("third placement on shard %d, want 1", s)
	}
	// Floors now 500 vs 200; next goes to 1 again, then counts tie-break.
	p2 := NewPlacement(3)
	for i := 0; i < 3; i++ {
		if s := place(p2, 0); s != i {
			t.Fatalf("zero-guarantee placement %d on shard %d, want round-robin via count tie-break", i, s)
		}
	}
	p.Add(0, 250, false)
	if p.Floor(0) != 750 {
		t.Fatalf("Floor(0) = %d after a descendant Add, want 750", p.Floor(0))
	}
	if p.TotalFloor() != 750+200 {
		t.Fatalf("TotalFloor() = %d, want 950", p.TotalFloor())
	}
	// Removing a top-level class frees its slot for the count tie-break.
	p2.Remove(0, 0, true)
	if s := p2.Pick(); s != 0 {
		t.Fatalf("Pick after Remove chose shard %d, want the freed shard 0", s)
	}
}

// TestSlicesProperty is the rebalancer safety property from the paper's
// composed admissibility argument: no shard's slice ever drops below its
// admitted floor, and when the floors fit in the line the slices use the
// line exactly.
func TestSlicesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 5000; iter++ {
		n := 1 + rng.Intn(8)
		line := uint64(1 + rng.Intn(1_000_000_000))
		floors := make([]uint64, n)
		weights := make([]float64, n)
		for i := range floors {
			floors[i] = uint64(rng.Intn(int(line)/n + 1))
			switch rng.Intn(3) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = rng.Float64() * 1e9
			default:
				weights[i] = -rng.Float64() // hostile input: negative weight
			}
		}
		out := Slices(line, floors, weights, nil)
		var sumF, sumS uint64
		for i := range out {
			if out[i] < floors[i] {
				t.Fatalf("iter %d: slice[%d] = %d below floor %d (line %d, floors %v, weights %v)",
					iter, i, out[i], floors[i], line, floors, weights)
			}
			sumF += floors[i]
			sumS += out[i]
		}
		if sumF <= line && sumS != line {
			t.Fatalf("iter %d: slices sum to %d, want line %d (floors sum %d)", iter, sumS, line, sumF)
		}
		if sumF > line && sumS != sumF {
			t.Fatalf("iter %d: overcommitted slices sum to %d, want floors sum %d", iter, sumS, sumF)
		}
	}
}

func TestSlicesEqualSplitWhenIdle(t *testing.T) {
	out := Slices(1000, []uint64{100, 200, 100, 100}, make([]float64, 4), nil)
	want := []uint64{225, 325, 225, 225} // floor + 500/4 each, remainder 0
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("idle split = %v, want %v", out, want)
		}
	}
}

// TestRebalancerFollowsDemand drives two shards with one-sided load and
// checks the excess migrates toward the loaded shard while the idle
// shard keeps its floor, then flips the load and checks the slices flip.
func TestRebalancerFollowsDemand(t *testing.T) {
	const line = 1_000_000
	floors := []uint64{100_000, 100_000}
	r := NewRebalancer(line, 2)

	now := int64(0)
	sent := []int64{0, 0}
	var out []uint64
	for i := 0; i < 50; i++ {
		now += int64(50 * time.Millisecond)
		sent[0] += 40_000 // shard 0 pushing ~800 KB/s
		out = r.Slices(now, sent, []int64{64_000, 0}, floors)
		for s := range out {
			if out[s] < floors[s] {
				t.Fatalf("round %d: slice[%d] = %d below floor", i, s, out[s])
			}
		}
	}
	if out[0] <= out[1] {
		t.Fatalf("demand on shard 0 but slices %v", out)
	}
	if out[0]+out[1] != line {
		t.Fatalf("slices %v do not use the full line %d", out, line)
	}

	for i := 0; i < 200; i++ { // flip the load to shard 1
		now += int64(50 * time.Millisecond)
		sent[1] += 40_000
		out = r.Slices(now, sent, []int64{0, 64_000}, floors)
	}
	if out[1] <= out[0] {
		t.Fatalf("demand flipped to shard 1 but slices %v", out)
	}
}

// TestRebalancerFloorsNeverViolated is the randomized property gate: an
// adversarial traffic pattern (bursts, idles, counter stalls) must never
// produce a slice below the admitted floor.
func TestRebalancerFloorsNeverViolated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(8)
		line := uint64(1_000_000 + rng.Intn(1_000_000_000))
		floors := make([]uint64, n)
		for i := range floors {
			floors[i] = uint64(rng.Intn(int(line) / n))
		}
		r := NewRebalancer(line, n)
		sent := make([]int64, n)
		backlog := make([]int64, n)
		now := int64(0)
		for round := 0; round < 50; round++ {
			now += int64(rng.Intn(int(time.Second)))
			for i := range sent {
				if rng.Intn(3) > 0 {
					sent[i] += int64(rng.Intn(1_000_000))
				}
				backlog[i] = int64(rng.Intn(1_000_000))
			}
			out := r.Slices(now, sent, backlog, floors)
			for i := range out {
				if out[i] < floors[i] {
					t.Fatalf("iter %d round %d: slice[%d] = %d below floor %d",
						iter, round, i, out[i], floors[i])
				}
			}
		}
	}
}
