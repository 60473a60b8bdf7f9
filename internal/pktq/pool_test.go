package pktq

import (
	"runtime"
	"sync"
	"testing"
)

func TestPoolReleaseZeroes(t *testing.T) {
	p := Get()
	if p.Len != 0 || p.Class != 0 || len(p.Payload) != 0 {
		t.Fatalf("Get returned a dirty packet: %+v", p)
	}
	p.Len = 1500
	p.Class = 7
	p.Flow = 3
	p.Seq = 42
	p.Arrival = 99
	p.Depart = 101
	p.Cost = 9000
	p.Deadline = 100
	p.Crit = ByRealTime
	p.SubmitAt = 77
	p.Handle = struct{}{}
	p.Payload = append(p.Payload, make([]byte, 1024)...)
	p.Release()

	q := Get()
	if q.Len != 0 || q.Class != 0 || q.Flow != 0 || q.Seq != 0 || q.Arrival != 0 ||
		q.Depart != 0 || q.Cost != 0 || q.Deadline != 0 || q.Crit != ByNone ||
		q.SubmitAt != 0 || q.Handle != nil || len(q.Payload) != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	q.Release()
}

// TestReleaseClearsEveryField pins the full Release contract on the
// struct itself (no pool indirection): Cost and SubmitAt in particular
// must not leak into the next lap — a stale Cost would recharge the
// wrong amount for a recycled packet, and a stale SubmitAt would fake a
// lifecycle-span sample.
func TestReleaseClearsEveryField(t *testing.T) {
	p := &Packet{
		Len:      64,
		Class:    5,
		Flow:     2,
		Seq:      9,
		Arrival:  10,
		Depart:   20,
		Cost:     4096,
		Deadline: 30,
		Crit:     ByLinkShare,
		SubmitAt: 40,
		Handle:   "gate",
		Payload:  make([]byte, 16, 64),
	}
	p.Release()
	if p.Cost != 0 {
		t.Errorf("Release left Cost = %d", p.Cost)
	}
	if p.SubmitAt != 0 {
		t.Errorf("Release left SubmitAt = %d", p.SubmitAt)
	}
	if p.Class != 0 || p.Flow != 0 || p.Seq != 0 {
		t.Errorf("Release left routing state: class=%d flow=%d seq=%d", p.Class, p.Flow, p.Seq)
	}
	if p.Len != 0 || p.Arrival != 0 || p.Depart != 0 || p.Deadline != 0 || p.Crit != ByNone || p.Handle != nil {
		t.Errorf("Release left timing/diagnostic state: %+v", p)
	}
	if len(p.Payload) != 0 || cap(p.Payload) != 64 {
		t.Errorf("Release payload len=%d cap=%d, want 0/64", len(p.Payload), cap(p.Payload))
	}
	if p.Work() != 0 {
		t.Errorf("recycled packet still has work %d", p.Work())
	}
}

func TestPoolKeepsPayloadCapacity(t *testing.T) {
	// The pool contract is that Release keeps the payload backing array;
	// whether Get returns the same struct is up to the runtime, so test the
	// invariant directly on the struct.
	p := &Packet{Payload: make([]byte, 512, 2048)}
	p.Release()
	if len(p.Payload) != 0 || cap(p.Payload) != 2048 {
		t.Fatalf("Release: payload len=%d cap=%d, want 0/2048", len(p.Payload), cap(p.Payload))
	}
}

// TestPoolDropsLargePayloads: Release lets go of a payload array above
// maxKeptPayload, so once a burst of large datagrams has passed through
// the pool and the GC has run, the heap is back near where it started,
// although the depot, which a GC does not empty, still holds the packets.
func TestPoolDropsLargePayloads(t *testing.T) {
	p := &Packet{Payload: make([]byte, 100, maxKeptPayload+1)}
	p.Release()
	if p.Payload != nil {
		t.Fatalf("Release kept a %d-byte payload array, want it dropped", maxKeptPayload+1)
	}

	// 16 magazines of 16 KiB payloads: 16 MiB, most of it bound for
	// the depot as the cache fills.
	const n, size = 16 * magSize, 16 << 10
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	ps := make([]*Packet, n)
	for i := range ps {
		ps[i] = Get()
		ps[i].Payload = append(ps[i].Payload, make([]byte, size)...)
	}
	for _, p := range ps {
		p.Release()
	}
	clear(ps)
	after := heap()
	grown := int64(after) - int64(before)
	t.Logf("heap %d -> %d bytes after releasing %d packets of %d-byte payloads", before, after, n, size)
	if grown > n*size/8 {
		t.Fatalf("heap grew by %d bytes after the burst, want <= %d: the pool pins released payloads", grown, n*size/8)
	}
}

// cyclePackets moves n packets from a producer goroutine to a releasing
// consumer in batches, the way a paced driver allocates on the submit
// side and releases in Transmit, with a runtime.GC every gcEvery packets.
// check, when set, runs on every packet Get returns; held tracks the
// packets between their Get and their Release.
func cyclePackets(t *testing.T, n, gcEvery int, check func(*Packet)) {
	t.Helper()
	const batch = 48 // not a magazine multiple: magazines fill unevenly
	// Up to 32 batches (about 1.5k packets) in flight, like a paced
	// shaper's window: far more than the two magazines a P caches, so
	// packets keep crossing between the Ps through the depot.
	ch := make(chan []*Packet, 24)
	free := make(chan []*Packet, 32)
	for i := 0; i < cap(free); i++ {
		free <- make([]*Packet, 0, batch)
	}
	var mu sync.Mutex
	held := make(map[*Packet]bool)
	dup := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range ch {
			if check != nil {
				mu.Lock()
				for _, p := range b {
					delete(held, p)
				}
				mu.Unlock()
			}
			for _, p := range b {
				p.Release()
			}
			free <- b[:0]
		}
	}()
	for sent := 0; sent < n; {
		b := <-free
		for len(b) < batch && sent < n {
			p := Get()
			if check != nil {
				check(p)
				mu.Lock()
				if held[p] {
					dup++
				}
				held[p] = true
				mu.Unlock()
			}
			p.Len, p.Seq = 64, uint64(sent+1)
			p.Payload = append(p.Payload, byte(sent))
			b = append(b, p)
			sent++
			if gcEvery > 0 && sent%gcEvery == 0 {
				runtime.GC()
			}
		}
		ch <- b
	}
	close(ch)
	<-done
	if dup != 0 {
		t.Fatalf("%d packets were handed out while still held", dup)
	}
}

// TestPoolCycleZeroedAndExclusive runs a producer and a releasing
// consumer through 1M packets with GCs interleaved: every Get must return
// a zeroed packet that no one else holds. Run it under -race too: the
// magazines change hands through sync.Pool and the depot's mutex.
func TestPoolCycleZeroedAndExclusive(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	dirty := 0
	cyclePackets(t, n, 1<<16, func(p *Packet) {
		if p.Len != 0 || p.Class != 0 || p.Flow != 0 || p.Seq != 0 || p.Arrival != 0 ||
			p.Depart != 0 || p.Cost != 0 || p.Deadline != 0 || p.Crit != ByNone ||
			p.SubmitAt != 0 || p.Handle != nil || len(p.Payload) != 0 {
			dirty++
		}
	})
	if dirty != 0 {
		t.Fatalf("%d packets came out of the pool dirty", dirty)
	}
}

// TestPoolAllocsBounded pins the pool's steady state: once warm, a
// producer/consumer cycle allocates at most one magazine's worth of
// packets per P per GC (a P's cache left idle is dropped by the GC; the
// depot is not). sync.Pool drops Puts at random under -race, so the
// count means nothing there.
func TestPoolAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const n, gcEvery = 1 << 18, 1 << 15
	cyclePackets(t, n, 0, nil) // warm: fill the caches and the depot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cyclePackets(t, n, gcEvery, nil)
	runtime.ReadMemStats(&after)
	gcs := int(after.NumGC - before.NumGC)
	// cyclePackets itself makes a handful of allocations per call
	// (channels, batch slices, goroutine, map).
	const harness = 64
	limit := uint64(magSize*runtime.GOMAXPROCS(0)*gcs + harness)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d packets and %d GCs (limit %d)", got, n, gcs, limit)
	if got > limit {
		t.Fatalf("%d allocations over %d packets and %d GCs, want <= %d", got, n, gcs, limit)
	}
}

// TestPoolReusesPackets: once warm, Get and Release on one goroutine
// allocate nothing, across several magazines' worth of packets (so the
// cache trades with the depot both ways).
func TestPoolReusesPackets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	ps := make([]*Packet, 3*magSize)
	for i := range ps {
		ps[i] = Get()
	}
	for _, p := range ps {
		p.Release()
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range ps {
			ps[i] = Get()
		}
		for _, p := range ps {
			p.Release()
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm Get/Release cycle allocates %.1f times", allocs)
	}
}
