package pktq

import "sync"

// The packet pool recycles Packet structs for sustained-load drivers. A
// scheduler datapath that allocates one Packet per wire packet churns the
// garbage collector at exactly the moment it is busiest; recycling keeps
// the steady state allocation-free.
//
// Packets travel in magazines of magSize (Bonwick's magazine allocator).
// Each P keeps a cache of two magazines in a sync.Pool, whose private
// per-P slot makes the per-packet Get and Release a pop or push on an
// array the calling goroutine owns outright. Producers and consumers
// usually run on different Ps — a driver allocates on the producer
// goroutine and releases on the pacing goroutine — so only whole
// magazines cross between them, through a mutex-guarded depot: one lock
// per magSize packets instead of a cross-P steal per packet. The depot
// is a plain global, so a GC does not empty it; magazines beyond its cap
// are left to the GC. What it keeps after a burst is bounded: at most
// depotCap*magSize packets, none holding a payload array larger than
// maxKeptPayload.

// magSize is how many packets one magazine holds.
const magSize = 64

// depotCap bounds each of the depot's full and empty magazine lists:
// 128 full magazines keep up to 8192 idle packets across GCs.
const depotCap = 128

// maxKeptPayload is the largest Payload backing array Release keeps, an
// Ethernet frame with room to spare. A larger one is let go, so the
// depot's idle packets hold at most 8192 × 2 KiB of payload once a burst
// of large datagrams has passed.
const maxKeptPayload = 2 << 10

type magazine struct {
	n    int
	pkts [magSize]*Packet
}

// cache is one P's pair of magazines: Get pops from loaded and Release
// pushes onto it; prev is swapped in before the depot is consulted, so a
// goroutine alternating Get and Release at a magazine boundary does not
// trade with the depot on every call. prev is always full or empty: the
// two swap only when loaded is empty or full.
type cache struct {
	loaded, prev *magazine
}

var caches = sync.Pool{New: func() any {
	return &cache{loaded: new(magazine), prev: new(magazine)}
}}

// depot holds the magazines between Ps.
var depot struct {
	mu     sync.Mutex
	full   [depotCap]*magazine
	empty  [depotCap]*magazine
	nfull  int
	nempty int
}

// takeFull trades an empty magazine for a full one; nil (and the empty
// magazine kept by the caller) when the depot holds none.
func takeFull(empty *magazine) *magazine {
	depot.mu.Lock()
	defer depot.mu.Unlock()
	if depot.nfull == 0 {
		return nil
	}
	depot.nfull--
	m := depot.full[depot.nfull]
	depot.full[depot.nfull] = nil
	if depot.nempty < depotCap {
		depot.empty[depot.nempty] = empty
		depot.nempty++
	}
	return m
}

// takeEmpty trades a full magazine for an empty one. Past the depot's
// cap the full magazine's packets are let go and the magazine itself
// comes back empty.
func takeEmpty(full *magazine) *magazine {
	depot.mu.Lock()
	defer depot.mu.Unlock()
	if depot.nfull == depotCap {
		clear(full.pkts[:])
		full.n = 0
		return full
	}
	depot.full[depot.nfull] = full
	depot.nfull++
	if depot.nempty == 0 {
		return new(magazine)
	}
	depot.nempty--
	m := depot.empty[depot.nempty]
	depot.empty[depot.nempty] = nil
	return m
}

// Get returns a zeroed Packet from the pool. Pair every Get with exactly
// one Release once the packet's owner is done with it.
func Get() *Packet {
	c := caches.Get().(*cache)
	if c.loaded.n == 0 {
		if c.prev.n > 0 {
			c.loaded, c.prev = c.prev, c.loaded
		} else if m := takeFull(c.loaded); m != nil {
			c.loaded = m
		}
	}
	var p *Packet
	if m := c.loaded; m.n > 0 {
		m.n--
		p = m.pkts[m.n]
		m.pkts[m.n] = nil
	} else {
		p = new(Packet)
	}
	caches.Put(c)
	return p
}

// Release zeroes the packet and returns it to the pool. A Payload
// backing array of up to maxKeptPayload bytes is kept (length reset to
// zero) so a driver that fills payloads with append reuses the same
// buffer lap after lap; a larger one is dropped.
//
// Ownership rule: whoever holds the packet releases it. A scheduler or
// driver owns the packet from a successful enqueue/Submit until its
// Transmit callback returns; callers may Release only a packet that was
// never accepted (a refused Submit) or one whose Transmit has completed
// — typically at the end of the Transmit callback itself.
func (p *Packet) Release() {
	payload := p.Payload
	if cap(payload) > maxKeptPayload {
		payload = nil
	} else if payload != nil {
		payload = payload[:0]
	}
	*p = Packet{Payload: payload}
	c := caches.Get().(*cache)
	if c.loaded.n == magSize {
		if c.prev.n == 0 {
			c.loaded, c.prev = c.prev, c.loaded
		} else {
			c.loaded = takeEmpty(c.loaded)
		}
	}
	m := c.loaded
	m.pkts[m.n] = p
	m.n++
	caches.Put(c)
}
