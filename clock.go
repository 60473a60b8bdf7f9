package hfsc

import (
	"sync/atomic"
	"time"
)

// The clock contract
//
// Every scheduler method that takes a `now int64` — Enqueue, Offer,
// Dequeue, DequeueN, NextReady, SetCurves — reads it as nanoseconds on one
// monotone, caller-chosen clock. The epoch is arbitrary: simulations use 0
// at start, drivers use wall time. All that matters is that a single
// scheduler only ever sees one clock and that it never runs backwards
// (time may stand still: equal timestamps are fine). Packet.Arrival,
// Packet.Deadline and every duration-valued metric (deadline slack,
// queueing delay) live on the same clock. Enqueue and Offer stamp their
// now into a zero Packet.Arrival, and queueing delay is measured from it.
//
// Real-time drivers should use Now and At to convert to and from
// time.Time instead of hand-rolling UnixNano arithmetic; the pair fixes
// the Unix-epoch convention in one place.

// Now converts a time.Time to the scheduler's nanosecond clock using the
// Unix-epoch convention (t.UnixNano()). Use with time-of-day clocks:
//
//	s.Offer(p, hfsc.Now(time.Now()))
func Now(t time.Time) int64 { return t.UnixNano() }

// coarseClock is a shared monotone nanosecond clock, published by the
// pacing goroutine(s) and read by producers. Each pacing pass makes one
// time.Now() call and advances the clock with it; everything else in the
// hot path — span stamps on Submit, the enqueue clock at intake drain
// (the packet's Arrival unless the submitter set one), transmit stamps —
// reads the cached value instead of taking its own vDSO round trip. The
// cost is granularity (stamps quantize to pacing passes, microseconds
// under load), never monotonicity: advance is a CAS-max, so with several
// pacing goroutines racing on one clock (MultiQueue shares one across
// shards) the published value only moves forward even when their
// time.Now() reads arrive out of order.
type coarseClock struct {
	ns atomic.Int64
}

// advance publishes ts if it is ahead of the current published time.
func (c *coarseClock) advance(ts int64) {
	for {
		cur := c.ns.Load()
		if ts <= cur {
			return
		}
		if c.ns.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// now returns the latest published time, or 0 before the first advance.
func (c *coarseClock) now() int64 { return c.ns.Load() }

// At converts a scheduler clock value back to a time.Time under the same
// Unix-epoch convention. At(Now(t)) == t up to the monotonic reading.
func At(ns int64) time.Time { return time.Unix(0, ns) }
