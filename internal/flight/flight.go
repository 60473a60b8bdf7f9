// Package flight implements the always-on flight recorder: a fixed-size
// ring of typed event records written by the scheduling goroutine and read
// concurrently by debug endpoints.
//
// Design constraints (see DESIGN.md §5e):
//
//   - Writes happen on the hot path, so they must be allocation-free and
//     cheap. The scheduler stages its events and hands them over a batch
//     at a time (Apply): one lock, four plain word stores per record, one
//     cursor publish per batch.
//   - Any number of readers may run beside the writer. A reader copies
//     under the same lock in chunks of at most readChunk records, so it
//     delays the writer by at most one chunk copy; the writer never waits
//     for a reader to finish. A slow reader simply loses the oldest
//     records (counted in Dropped).
//   - Every ReadSince result is gapless and consistent: a chunk copy sees
//     whole records, and a writer that laps the reader between chunks
//     makes the reader restart from the oldest record still in the ring
//     rather than splice across the gap.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/pktq"
)

// DefaultRecords is the per-shard ring capacity when the caller does not
// choose one. At ~1 Mpps a shard overwrites this window in ~4 ms — enough
// to capture the events around any anomaly a reader reacts to.
const DefaultRecords = 4096

// minRecords bounds tiny rings.
const minRecords = 64

// readChunk is the most records a reader copies per lock hold: the
// longest a reader can delay the writer.
const readChunk = 256

// wordsPerRecord is the ring storage cost of one record: timestamp, aux,
// packet seq, and a packed ev/class/len word.
const wordsPerRecord = 4

// Record is one flight-recorder entry, decoded from the ring.
type Record struct {
	// Seq is the global record sequence number (monotone per recorder,
	// starting at 1). Gaps never occur in a single ReadSince result; a gap
	// between successive reads means the ring wrapped past the reader.
	Seq uint64
	// TS is the event's scheduler clock (monotonic ns).
	TS int64
	// Ev is the traced event.
	Ev core.Event
	// Class is the event's class id (shard-local as written; drivers that
	// merge shards remap it to the global id). -1 when the event carried
	// no class.
	Class int32
	// Len is the packet length in bytes (0 when the event carried no
	// packet).
	Len int32
	// PktSeq is the packet's sequence number (0 when no packet).
	PktSeq uint64
	// Aux is the event-specific payload: deadline slack for dequeue-rt,
	// drop reason for drop, fit time for ulimit-defer; 0 for transmit.
	Aux int64
	// Shard is filled in by multi-shard readers (FlightEvents); single
	// recorders leave it 0.
	Shard int32
}

// Recorder is a mutex-guarded ring of Records: one writer applying
// staged batches, any number of concurrent readers.
type Recorder struct {
	mu sync.Mutex
	// cursor is the number of records ever written; record i (1-based)
	// lives in slot (i-1)&mask until overwritten. It is stored once per
	// Apply, under mu, and is atomic only so Recorded and Dropped can read
	// it without the lock.
	cursor atomic.Uint64
	mask   uint64
	// store holds size*wordsPerRecord words, [ts, aux, pktseq, packed]
	// per slot, all guarded by mu.
	store []uint64
}

// New returns a Recorder holding the given number of records, rounded up
// to a power of two. size <= 0 selects DefaultRecords.
func New(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecords
	}
	if size < minRecords {
		size = minRecords
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Recorder{
		mask:  uint64(n - 1),
		store: make([]uint64, n*wordsPerRecord),
	}
}

// Capacity returns the ring size in records.
func (r *Recorder) Capacity() int { return int(r.mask) + 1 }

// Recorded returns the number of records ever written.
func (r *Recorder) Recorded() uint64 { return r.cursor.Load() }

// Dropped returns the number of records that have been overwritten (no
// longer readable). It is derived, not separately counted: the ring keeps
// exactly the last Capacity records.
func (r *Recorder) Dropped() uint64 {
	c := r.cursor.Load()
	size := r.mask + 1
	if c <= size {
		return 0
	}
	return c - size
}

// packed word layout: ev in bits 56..63, class in bits 32..55 (biased by
// one so -1 encodes as 0), len in bits 0..31.
const (
	packEvShift    = 56
	packClassShift = 32
	packClassMask  = (1 << 24) - 1
	packLenMask    = (1 << 32) - 1
)

func pack(ev core.Event, class int32, length int32) uint64 {
	return uint64(ev)<<packEvShift |
		(uint64(class+1)&packClassMask)<<packClassShift |
		uint64(uint32(length))
}

func unpack(w uint64) (ev core.Event, class int32, length int32) {
	ev = core.Event(w >> packEvShift)
	class = int32((w>>packClassShift)&packClassMask) - 1
	length = int32(uint32(w & packLenMask))
	return
}

// Apply implements core.Sink: it writes the records in order under one
// lock hold and publishes the cursor once. The class id recorded is the
// scheduler-local id (root = 0); nil classes record -1. It never
// allocates.
func (r *Recorder) Apply(recs []core.Record) {
	r.mu.Lock()
	c := r.cursor.Load()
	for i := range recs {
		rec := &recs[i]
		class := int32(-1)
		if rec.Class != nil {
			class = int32(rec.Class.ID())
		}
		base := (c & r.mask) * wordsPerRecord
		slot := r.store[base : base+wordsPerRecord : base+wordsPerRecord]
		slot[0] = uint64(rec.Now)
		slot[1] = uint64(rec.Aux)
		slot[2] = rec.Seq
		slot[3] = pack(rec.Ev, class, int32(rec.Work))
		c++
	}
	r.cursor.Store(c)
	r.mu.Unlock()
}

// Trace implements core.Tracer as a one-record Apply, for offline callers
// and tests that attach the recorder directly.
func (r *Recorder) Trace(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
	rec := [1]core.Record{core.NewRecord(ev, cl, p, now, aux)}
	r.Apply(rec[:])
}

// ReadSince copies records with Seq > since into buf (appending) and
// returns the extended slice plus the newest Seq observed. The copy runs
// in chunks of at most readChunk records per lock hold, so a reader
// delays the writer by at most one chunk. The result is gapless and every
// record in it is consistent: if the writer overwrites records the reader
// has not copied yet, the copy restarts from the oldest record still in
// the ring. A gap between `since` and the first returned Seq means the
// ring wrapped past the reader. Safe for any number of concurrent
// callers. Pass the returned cursor back as `since` to tail the stream.
func (r *Recorder) ReadSince(since uint64, buf []Record) ([]Record, uint64) {
	end := r.cursor.Load()
	if end <= since {
		return buf, end
	}
	start := len(buf)
	next := since + 1 // the next record to copy
	size := r.mask + 1
	// Grow outside the lock, so no chunk copy waits on the allocator.
	buf = slices.Grow(buf, int(min(end-since, size)))
	for next <= end {
		r.mu.Lock()
		if c := r.cursor.Load(); c > size && next <= c-size {
			// Lapped: next is gone. Keep the result gapless by starting
			// over from the oldest record still held.
			buf = buf[:start]
			next = c - size + 1
		}
		stop := min(end, next+readChunk-1)
		for seq := next; seq <= stop; seq++ {
			base := ((seq - 1) & r.mask) * wordsPerRecord
			slot := r.store[base : base+wordsPerRecord : base+wordsPerRecord]
			ev, class, length := unpack(slot[3])
			buf = append(buf, Record{
				Seq: seq, TS: int64(slot[0]), Ev: ev,
				Class: class, Len: length, PktSeq: slot[2], Aux: int64(slot[1]),
			})
		}
		r.mu.Unlock()
		next = stop + 1
	}
	return buf, end
}

// Snapshot appends the full readable window to buf and returns it — a
// one-shot ReadSince from the beginning.
func (r *Recorder) Snapshot(buf []Record) []Record {
	out, _ := r.ReadSince(0, buf)
	return out
}

// EventJSON is the wire form of a Record for debug endpoints.
type EventJSON struct {
	Seq    uint64 `json:"seq"`
	TS     int64  `json:"ts_ns"`
	Event  string `json:"event"`
	Class  int32  `json:"class"`
	Name   string `json:"name,omitempty"`
	Shard  int32  `json:"shard"`
	PktSeq uint64 `json:"pkt_seq,omitempty"`
	Len    int32  `json:"len,omitempty"`
	Aux    int64  `json:"aux,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// ToJSON converts a Record to its wire form. nameFn, if non-nil, maps a
// class id to a display name ("" to omit).
func ToJSON(rec Record, nameFn func(class int32) string) EventJSON {
	e := EventJSON{
		Seq:    rec.Seq,
		TS:     rec.TS,
		Event:  rec.Ev.String(),
		Class:  rec.Class,
		Shard:  rec.Shard,
		PktSeq: rec.PktSeq,
		Len:    rec.Len,
		Aux:    rec.Aux,
	}
	if nameFn != nil && rec.Class >= 0 {
		e.Name = nameFn(rec.Class)
	}
	if rec.Ev == core.EvDrop {
		e.Reason = core.DropReason(rec.Aux).String()
	}
	return e
}

// WriteEvents writes records as JSON lines (one event object per line),
// the format tailed by hfsc-replay/-sim -events and the debug endpoint's
// streaming mode.
func WriteEvents(w io.Writer, recs []Record, nameFn func(class int32) string) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(ToJSON(rec, nameFn)); err != nil {
			return fmt.Errorf("flight: write events: %w", err)
		}
	}
	return nil
}
