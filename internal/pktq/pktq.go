// Package pktq provides the work-item representation (historically the
// packet) and the per-class FIFO queue shared by every scheduler in this
// repository.
//
// Nothing in the service-curve math requires the scheduled unit to be a
// network packet: the guarantees are stated over service received for work
// of a given size. A Packet is therefore one *work item* whose scheduled
// quantity is its Cost (see Packet.Cost and Packet.Work); for wire packets
// the cost is simply the length in bytes, which remains the default.
package pktq

// Criterion records which scheduling criterion released a packet; it is
// diagnostic metadata used by the experiments (e.g. to measure how much
// service the real-time criterion claimed versus link-sharing).
type Criterion uint8

const (
	// ByNone marks a packet not yet dequeued.
	ByNone Criterion = iota
	// ByRealTime marks service under the real-time criterion.
	ByRealTime
	// ByLinkShare marks service under the link-sharing criterion.
	ByLinkShare
)

func (c Criterion) String() string {
	switch c {
	case ByRealTime:
		return "rt"
	case ByLinkShare:
		return "ls"
	default:
		return "none"
	}
}

// Packet is one unit of work. Times are nanoseconds on the simulation (or
// wall) clock. The quantity every scheduler charges for is Work(): the
// explicit Cost when one is set, else the wire length Len — so packet
// datapaths keep writing Len alone while request datapaths set Cost to
// their estimated service cost (the middleware uses estimated service
// nanoseconds) and leave Len zero.
type Packet struct {
	Len     int    // wire length in bytes (the cost when Cost is 0)
	Class   int    // leaf class index within the scheduler
	Flow    int    // originating flow, for statistics
	Seq     uint64 // global arrival sequence number
	Arrival int64  // ns, time the last bit arrived (paper's convention); the enqueue stamps its clock when zero
	Depart  int64  // ns, time the last bit was transmitted; set by the link

	// Cost is the scheduled quantity in abstract cost units. Zero means
	// "the cost is Len bytes", keeping packet producers unchanged; a
	// non-zero Cost takes precedence and Len becomes wire metadata the
	// scheduler never charges for. Cost must not change while the item is
	// queued (completion-time differences are reconciled through the
	// scheduler's Correct entry point instead).
	Cost uint64

	// Deadline and Crit are diagnostics filled in by curve-based
	// schedulers when the packet is dequeued.
	Deadline int64
	Crit     Criterion

	// SubmitAt is the driver-side submit timestamp (ns), stamped only on
	// span-sampled packets (see hfsc.Config.Spans) and zeroed again before
	// the packet leaves through Transmit. Zero means not sampled.
	SubmitAt int64

	// Handle carries the submitter's per-item state through the scheduler
	// untouched — e.g. the admission gate a request blocks on until the
	// item reappears in the Transmit callback. Cleared by Release.
	Handle any

	// Payload carries application data for real-datapath uses (e.g. the
	// UDP shaper example); simulators leave it nil.
	Payload []byte
}

// Work returns the scheduled quantity of the item: Cost when set,
// otherwise the wire length. This is what every scheduler in the
// repository charges against the service curves.
func (p *Packet) Work() int64 {
	if p.Cost != 0 {
		return int64(p.Cost)
	}
	return int64(p.Len)
}

// FIFO is a bounded first-in first-out packet queue with drop-tail
// semantics. The zero FIFO is unbounded; set PktLimit and/or ByteLimit to
// bound it. Size accounting is in cost units (Packet.Work) — identical to
// bytes for wire packets.
type FIFO struct {
	PktLimit  int   // maximum packets held, 0 = unlimited
	ByteLimit int64 // maximum cost units held, 0 = unlimited

	buf     []*Packet
	head    int
	count   int
	bytes   int64
	dropped uint64
}

// Len returns the number of queued packets.
func (q *FIFO) Len() int { return q.count }

// Bytes returns the queued cost units (bytes, for wire packets).
func (q *FIFO) Bytes() int64 { return q.bytes }

// Dropped returns the count of packets rejected by Push.
func (q *FIFO) Dropped() uint64 { return q.dropped }

// Push appends p, returning false (and counting a drop) if a limit would be
// exceeded.
func (q *FIFO) Push(p *Packet) bool {
	if q.PktLimit > 0 && q.count >= q.PktLimit {
		q.dropped++
		return false
	}
	if q.ByteLimit > 0 && q.count > 0 && q.bytes+p.Work() > q.ByteLimit {
		q.dropped++
		return false
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)%len(q.buf)] = p
	q.count++
	q.bytes += p.Work()
	return true
}

// Front returns the head packet without removing it, or nil.
func (q *FIFO) Front() *Packet {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Pop removes and returns the head packet, or nil.
func (q *FIFO) Pop() *Packet {
	if q.count == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.bytes -= p.Work()
	return p
}

func (q *FIFO) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	nb := make([]*Packet, n)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}
