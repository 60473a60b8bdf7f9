// Package multi holds the shard-partitioning machinery behind a
// multi-shard PacedQueue: placement of top-level link-sharing subtrees onto scheduler
// shards, division of the line rate into per-shard service-curve slices,
// and the demand-driven rebalancing of the excess (non-guaranteed)
// bandwidth.
//
// The partition rests on the paper's admissibility condition (Section II
// / IV): a configuration is schedulable when the sum of the leaf
// real-time service curves lies below the server's curve. The condition
// composes — split the top-level subtrees into groups, give each group a
// slice of the link curve at least as large as the group's admitted sum
// of real-time curves, and every group is admissible on its slice. That
// is what lets N independent single-goroutine schedulers stand in for
// one: real-time (Theorem 2) guarantees are preserved per shard as long
// as no shard's slice ever drops below its admitted guarantee, while
// link-sharing fairness across shards degrades from packet-granular to
// epoch-granular (the rebalancer re-divides only the excess, on its own
// clock).
//
// Guarantees are accounted at the sup-rate of each admitted real-time
// curve — max(m1, m2), the supremum of rsc(t)/t over t for a two-piece
// linear curve — so a shard slice of Σ sup-rates dominates the exact
// curve-sum condition (sum of sups ≥ sup of the sum). That is
// conservative: a set of bursty concave curves may be admitted by the
// exact single-link test but counted here at its burst rate.
package multi

import (
	"runtime"

	"github.com/netsched/hfsc/internal/metrics"
)

// MaxShards bounds the shard count. Drivers track "shards touched" in a
// word-sized bitmask, and far before 64 shards the rebalancing epoch —
// not the shard count — is the scaling limit.
const MaxShards = 64

// DefaultShards returns the default shard count: the number of
// schedulable CPUs rounded up to a power of two, clamped to
// [1, MaxShards]. One pacing goroutine per CPU is the run-to-completion
// sweet spot; more only adds scheduler churn.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n {
		p <<= 1
	}
	if p > MaxShards {
		p = MaxShards
	}
	return p
}

// Placement pins top-level link-sharing subtrees to shards and accounts
// each shard's admitted real-time guarantee (its floor). Not safe for
// concurrent use; the owner serializes access (the PacedQueue takes its
// placement mutex around every change, including live add/remove).
type Placement struct {
	floors []uint64 // Σ sup-rates of admitted leaf rsc curves, per shard
	tops   []int    // top-level classes pinned, per shard
}

// NewPlacement creates a placement over the given shard count.
func NewPlacement(shards int) *Placement {
	return &Placement{floors: make([]uint64, shards), tops: make([]int, shards)}
}

// Pick chooses the shard for a new top-level subtree: the one with the
// smallest admitted floor, ties broken by fewest pinned subtrees, then
// lowest index — a greedy longest-processing-time-style balance that keeps
// guaranteed load and subtree count spread without ever migrating a pinned
// class. Pick does not pin anything; Add does, once the class exists.
func (p *Placement) Pick() int {
	best := 0
	for i := 1; i < len(p.floors); i++ {
		if p.floors[i] < p.floors[best] ||
			(p.floors[i] == p.floors[best] && p.tops[i] < p.tops[best]) {
			best = i
		}
	}
	return best
}

// Add charges a class's real-time guarantee (sup-rate, bytes/s; 0 for a
// pure link-sharing class) to its shard's floor; top marks a top-level
// class, which also counts as a pinned subtree.
func (p *Placement) Add(shard int, guarantee uint64, top bool) {
	if top {
		p.tops[shard]++
	}
	p.floors[shard] += guarantee
}

// Remove reverses an Add: the class was removed, garbage-collected, or its
// guarantee is about to change.
func (p *Placement) Remove(shard int, guarantee uint64, top bool) {
	if top {
		p.tops[shard]--
	}
	p.floors[shard] -= guarantee
}

// Floor reports one shard's admitted guarantee (bytes/s).
func (p *Placement) Floor(shard int) uint64 { return p.floors[shard] }

// Floors copies the per-shard admitted guarantees into out (grown as
// needed) and returns it.
func (p *Placement) Floors(out []uint64) []uint64 {
	return append(out[:0], p.floors...)
}

// TotalFloor reports the summed admitted guarantee across shards — the
// composed admissibility test compares this against the line rate.
func (p *Placement) TotalFloor() uint64 {
	var t uint64
	for _, f := range p.floors {
		t += f
	}
	return t
}

// Slices divides a line rate into per-shard rate slices: every shard
// keeps its guaranteed floor, and the excess (line − Σ floors) is split
// in proportion to the demand weights (equally when no shard shows
// demand). The invariant the real-time guarantees rest on: slices[i] ≥
// floors[i] always. When Σ floors ≤ line the slices additionally sum to
// exactly line; when the configuration is overcommitted (Σ floors >
// line, which Admissible reports) each shard still gets its full floor
// and no excess exists to divide.
func Slices(line uint64, floors []uint64, weights []float64, out []uint64) []uint64 {
	out = append(out[:0], floors...)
	var sumF uint64
	for _, f := range floors {
		sumF += f
	}
	if sumF >= line || len(out) == 0 {
		return out
	}
	excess := line - sumF
	var sumW float64
	for _, w := range weights {
		if w > 0 {
			sumW += w
		}
	}
	if sumW <= 0 {
		// No demand signal: split the excess evenly.
		per := excess / uint64(len(out))
		for i := range out {
			out[i] += per
		}
		out[0] += excess - per*uint64(len(out))
		return out
	}
	var given uint64
	heaviest := 0
	for i := range out {
		w := weights[i]
		if w < 0 {
			w = 0
		}
		share := uint64(float64(excess) * (w / sumW))
		out[i] += share
		given += share
		if w > weights[heaviest] {
			heaviest = i
		}
	}
	// Rounding remainder goes to the heaviest shard so Σ slices == line.
	out[heaviest] += excess - given
	return out
}

// Rebalancer turns per-shard observations (cumulative sent bytes and
// current backlog) into updated rate slices. Demand per shard is an EWMA
// of its service rate plus its backlog expressed as a drain rate over
// the EWMA window — a backlogged shard signals demand even while its
// slice starves it, which is what lets excess migrate toward it. Not
// safe for concurrent use.
type Rebalancer struct {
	line    uint64
	rates   []metrics.EWMA
	prev    []int64
	weights []float64
	out     []uint64
}

// window is the EWMA time constant for demand estimation (ns), the same
// one-second window as the per-class service-rate estimators.
const window = float64(metrics.DefaultWindow)

// NewRebalancer creates a rebalancer for the given line rate and shard
// count.
func NewRebalancer(line uint64, shards int) *Rebalancer {
	r := &Rebalancer{
		line:    line,
		rates:   make([]metrics.EWMA, shards),
		prev:    make([]int64, shards),
		weights: make([]float64, shards),
		out:     make([]uint64, 0, shards),
	}
	for i := range r.rates {
		r.rates[i].SetTau(window)
	}
	return r
}

// Slices folds one observation epoch — cumulative sent bytes and current
// backlog bytes per shard, at clock now (ns) — and returns the new rate
// slices over floors. The returned slice is reused across calls.
func (r *Rebalancer) Slices(now int64, sentBytes, backlogBytes []int64, floors []uint64) []uint64 {
	for i := range r.rates {
		delta := sentBytes[i] - r.prev[i]
		r.prev[i] = sentBytes[i]
		if delta < 0 {
			delta = 0
		}
		r.rates[i].Observe(delta, now)
		r.weights[i] = r.rates[i].Rate(now) + float64(backlogBytes[i])*1e9/window
	}
	r.out = Slices(r.line, floors, r.weights, r.out)
	return r.out
}
