package core

import "github.com/netsched/hfsc/internal/pktq"

// Event identifies a scheduler occurrence reported to a Tracer.
type Event uint8

const (
	// EvEnqueue: a packet was accepted into a leaf queue.
	EvEnqueue Event = iota
	// EvDrop: a packet was rejected; aux carries the DropReason.
	EvDrop
	// EvDequeueRT: a packet left under the real-time criterion; aux carries
	// the deadline slack (deadline − now, ns): positive means the packet
	// left ahead of its deadline, negative means a deadline miss.
	EvDequeueRT
	// EvDequeueLS: a packet left under the link-sharing criterion.
	EvDequeueLS
	// EvActivate: a class became active (entered its parent's trees).
	EvActivate
	// EvPassive: a class went passive.
	EvPassive
	// EvDeadlineMiss: a real-time packet left after its deadline. Emitted
	// in addition to EvDequeueRT; aux carries the (negative) slack.
	EvDeadlineMiss
	// EvUlimitDefer: a dequeue attempt found backlogged link-sharing
	// traffic but every active class deferred by an upper-limit curve; aux
	// carries the earliest future fit time (0 if none). The class is the
	// root.
	EvUlimitDefer
	// EvTransmit: a driver handed the packet to its transmit callback. The
	// scheduler core never emits this event; real-time drivers (the public
	// PacedQueue) report it into the flight recorder so the event stream
	// covers the full packet lifecycle. Aux is 0: a packet is transmitted
	// on the pacing pass that dequeued it, at that pass's clock.
	EvTransmit
	// EvCorrect: a completion correction reconciled a work item's actual
	// cost against the estimate it was scheduled under (Scheduler.Correct).
	// Aux carries the applied delta in cost units (actual − estimated,
	// after clamping); the packet is nil.
	EvCorrect

	// evSentinel bounds the declared events; it must stay last. Tests use
	// it to assert every event renders a real String.
	evSentinel
)

// EventCount is the number of declared tracer events; Event values in
// [0, EventCount) are valid.
const EventCount = int(evSentinel)

func (e Event) String() string {
	switch e {
	case EvEnqueue:
		return "enqueue"
	case EvDrop:
		return "drop"
	case EvDequeueRT:
		return "dequeue-rt"
	case EvDequeueLS:
		return "dequeue-ls"
	case EvActivate:
		return "activate"
	case EvPassive:
		return "passive"
	case EvDeadlineMiss:
		return "deadline-miss"
	case EvUlimitDefer:
		return "ulimit-defer"
	case EvTransmit:
		return "transmit"
	case EvCorrect:
		return "correct"
	default:
		return "unknown"
	}
}

// DropReason says why a packet was refused. Queue-limit drops are traced
// by the scheduler itself (EvDrop aux); the admission reasons are reported
// by the public wrapper, which validates packets before they reach the
// core.
type DropReason uint8

const (
	// DropNone: the packet was accepted.
	DropNone DropReason = iota
	// DropQueueLimit: the leaf queue's packet or byte limit was reached.
	DropQueueLimit
	// DropUnknownClass: the packet named a class that does not exist or
	// cannot carry traffic (interior, root, or removed).
	DropUnknownClass
	// DropBadPacket: the packet itself was malformed (non-positive length).
	DropBadPacket
	// DropIntakeFull: a driver's intake ring was full. Never emitted by the
	// scheduler core; reported by drivers (e.g. the public PacedQueue) so
	// intake loss shares the scheduler's drop vocabulary.
	DropIntakeFull
	// DropStopped: the driver was already stopped. Driver-level, like
	// DropIntakeFull.
	DropStopped
)

func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropQueueLimit:
		return "queue-limit"
	case DropUnknownClass:
		return "unknown-class"
	case DropBadPacket:
		return "bad-packet"
	case DropIntakeFull:
		return "intake-full"
	case DropStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Tracer observes scheduler events; see Options.Tracer. Packet is nil for
// activation/passivation and deferral events; aux is the event-specific
// payload documented on each Event. Tracers run synchronously on the
// scheduling path: keep them cheap.
type Tracer interface {
	Trace(ev Event, cl *Class, p *pktq.Packet, now, aux int64)
}

// trace emits an event if a tracer is configured.
func (s *Scheduler) trace(ev Event, cl *Class, p *pktq.Packet, now, aux int64) {
	if s.opts.Tracer != nil {
		s.opts.Tracer.Trace(ev, cl, p, now, aux)
	}
}

// Record is one staged tracer event: the Trace arguments with the packet
// reduced to the fields sinks read, so a record stays valid after the
// packet has been transmitted and released to its pool.
type Record struct {
	Ev Event
	// Class is nil when the event carried no class. A Batch clears its
	// records once published, so staging never keeps a removed class
	// alive.
	Class *Class
	// Seq, Work and Arrival copy the packet's sequence number, cost
	// (Packet.Work) and arrival stamp; all zero when the event carried no
	// packet.
	Seq     uint64
	Work    int64
	Arrival int64
	Now     int64
	Aux     int64
}

// NewRecord builds the record of one Trace call.
func NewRecord(ev Event, cl *Class, p *pktq.Packet, now, aux int64) Record {
	r := Record{Ev: ev, Class: cl, Now: now, Aux: aux}
	if p != nil {
		r.Seq, r.Work, r.Arrival = p.Seq, p.Work(), p.Arrival
	}
	return r
}

// Sink consumes staged records, a batch at a time, in event order. Apply
// must not retain the slice.
type Sink interface {
	Apply(recs []Record)
}

// batchCap bounds a Batch between publishes: a run of events that long is
// published on the spot, so a long burst neither grows the batch without
// bound nor holds its records back from the sinks for long.
const batchCap = 256

// Batch is the staging Tracer: each event is one append to a slice owned
// by the scheduling goroutine, and Publish hands the staged run to every
// sink in one call. A sink therefore takes its lock (or publishes its
// cursor) once per batch instead of once per event. Like the scheduler it
// stages for, a Batch is not safe for concurrent use: its owner decides
// when records become visible by calling Publish.
type Batch struct {
	recs  []Record
	sinks []Sink
}

// NewBatch returns a batch publishing to sinks, in order. Its storage is
// allocated once, at the full batch size.
func NewBatch(sinks ...Sink) *Batch {
	return &Batch{recs: make([]Record, 0, batchCap), sinks: sinks}
}

// Trace implements Tracer by staging the event. It fills the next slot
// in place: Publish leaves published slots zeroed, so only the fields the
// event carries are written.
func (b *Batch) Trace(ev Event, cl *Class, p *pktq.Packet, now, aux int64) {
	r := b.next()
	r.Ev, r.Class, r.Now, r.Aux = ev, cl, now, aux
	if p != nil {
		r.Seq, r.Work, r.Arrival = p.Seq, p.Work(), p.Arrival
	}
}

// next returns the next (zeroed) slot, publishing first if the batch is
// full.
func (b *Batch) next() *Record {
	n := len(b.recs)
	if n == batchCap {
		b.Publish()
		n = 0
	}
	b.recs = b.recs[:n+1]
	return &b.recs[n]
}

// Publish hands the staged records to every sink and empties the batch.
// It is a no-op when nothing is staged.
func (b *Batch) Publish() {
	if len(b.recs) == 0 {
		return
	}
	for _, s := range b.sinks {
		s.Apply(b.recs)
	}
	clear(b.recs)
	b.recs = b.recs[:0]
}
