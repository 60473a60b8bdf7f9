package flight_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/flight"
)

func TestSizing(t *testing.T) {
	if got := flight.New(0).Capacity(); got != flight.DefaultRecords {
		t.Fatalf("default capacity = %d", got)
	}
	if got := flight.New(100).Capacity(); got != 128 {
		t.Fatalf("round-up capacity = %d, want 128", got)
	}
	if got := flight.New(1).Capacity(); got != 64 {
		t.Fatalf("min capacity = %d, want 64", got)
	}
}

// classes returns n classes whose ids are their indexes: the root plus
// n-1 leaves.
func classes(t testing.TB, n int) []*core.Class {
	t.Helper()
	s := core.New(core.Options{})
	out := []*core.Class{s.Root()}
	for i := 1; i < n; i++ {
		cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i), curve.SC{}, curve.Linear(1000), curve.SC{})
		if err != nil {
			t.Fatal(err)
		}
		if cl.ID() != i {
			t.Fatalf("class id %d, want %d", cl.ID(), i)
		}
		out = append(out, cl)
	}
	return out
}

// rec builds one staged record.
func rec(ev core.Event, cl *core.Class, pktSeq uint64, work, now, aux int64) core.Record {
	return core.Record{Ev: ev, Class: cl, Seq: pktSeq, Work: work, Now: now, Aux: aux}
}

func TestReadSinceBasic(t *testing.T) {
	cls := classes(t, 10)
	r := flight.New(64)
	batch := make([]core.Record, 0, 10)
	for i := 0; i < 10; i++ {
		batch = append(batch, rec(core.EvEnqueue, cls[i], uint64(100+i), 1500, int64(i*10), 0))
	}
	r.Apply(batch)
	recs, cur := r.ReadSince(0, nil)
	if cur != 10 || len(recs) != 10 {
		t.Fatalf("got %d recs, cursor %d", len(recs), cur)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Class != int32(i) || rec.PktSeq != uint64(100+i) ||
			rec.Len != 1500 || rec.TS != int64(i*10) || rec.Ev != core.EvEnqueue {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}
	// Tailing: no new records → empty, same cursor.
	recs2, cur2 := r.ReadSince(cur, nil)
	if len(recs2) != 0 || cur2 != cur {
		t.Fatalf("tail read got %d recs, cursor %d", len(recs2), cur2)
	}
	// Partial tail.
	r.Apply([]core.Record{rec(core.EvDrop, cls[3], 0, 0, 99, int64(core.DropQueueLimit))})
	recs3, _ := r.ReadSince(cur, nil)
	if len(recs3) != 1 || recs3[0].Ev != core.EvDrop || recs3[0].Aux != int64(core.DropQueueLimit) {
		t.Fatalf("tail read: %+v", recs3)
	}
}

func TestWrapKeepsNewest(t *testing.T) {
	cls := classes(t, 2)
	r := flight.New(64)
	const total = 1000
	for i := 0; i < total; i++ {
		r.Apply([]core.Record{rec(core.EvEnqueue, cls[1], uint64(i), 100, int64(i), 0)})
	}
	if r.Recorded() != total {
		t.Fatalf("recorded = %d", r.Recorded())
	}
	if want := uint64(total - 64); r.Dropped() != want {
		t.Fatalf("dropped = %d, want %d", r.Dropped(), want)
	}
	// Once wrapped, the readable window is the whole ring: the writer
	// holds the lock while it overwrites, so no slot is ever read mid-write.
	recs := r.Snapshot(nil)
	if len(recs) != 64 {
		t.Fatalf("snapshot holds %d records, want 64", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(total - 64 + i + 1); rec.Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, rec.Seq, want)
		}
		if rec.TS != int64(rec.Seq-1) {
			t.Fatalf("record %d payload desynced from seq", i)
		}
	}
}

func TestNegativeAuxAndNilClass(t *testing.T) {
	r := flight.New(64)
	r.Trace(core.EvDeadlineMiss, nil, nil, 5, -123456)
	recs := r.Snapshot(nil)
	if len(recs) != 1 || recs[0].Aux != -123456 || recs[0].Class != -1 || recs[0].Len != 0 {
		t.Fatalf("record: %+v", recs[0])
	}
}

// A batch write and a tail read into a warm buffer are both
// allocation-free.
func TestZeroAllocWrite(t *testing.T) {
	cls := classes(t, 8)
	r := flight.New(256)
	batch := make([]core.Record, 32)
	for i := range batch {
		batch[i] = rec(core.EvDequeueRT, cls[i%len(cls)], uint64(i), 1500, 1000, 50)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Apply(batch) }); n != 0 {
		t.Fatalf("Apply allocates %.1f/op", n)
	}
	buf := make([]flight.Record, 0, 256)
	var since uint64
	if n := testing.AllocsPerRun(1000, func() {
		r.Apply(batch)
		buf, since = r.ReadSince(since, buf[:0])
	}); n != 0 {
		t.Fatalf("ReadSince into a warm buffer allocates %.1f/op", n)
	}
}

// stamp is the payload TestConcurrentReaders writes for record seq; any
// record whose fields disagree with its seq is torn.
func stamp(cls []*core.Class, seq uint64) core.Record {
	return rec(core.EvEnqueue, cls[seq%uint64(len(cls))], seq, int64(seq%9000), int64(seq-1), -int64(seq))
}

// Readers chase a batched writer across wraps and chunk boundaries: every
// ReadSince result must be gapless, internally consistent (each payload
// derived from its seq), continue from `since` unless the ring wrapped
// past the reader, and end at the returned cursor; Recorded and Dropped
// stay exact. Run with -race.
func TestConcurrentReaders(t *testing.T) {
	cls := classes(t, 1000)
	for _, size := range []int{64, 1024} {
		t.Run(fmt.Sprintf("ring=%d", size), func(t *testing.T) {
			r := flight.New(size)
			const total = 200_000
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for reader := 0; reader < 4; reader++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var since uint64
					buf := make([]flight.Record, 0, size)
					for {
						var recs []flight.Record
						recs, cur := r.ReadSince(since, buf[:0])
						if cur < since {
							t.Errorf("cursor went back: %d after %d", cur, since)
							return
						}
						if len(recs) > size {
							t.Errorf("read %d records from a %d-record ring", len(recs), size)
							return
						}
						if len(recs) > 0 && (recs[0].Seq <= since || recs[len(recs)-1].Seq != cur) {
							t.Errorf("read [%d, %d] after %d, cursor %d", recs[0].Seq, recs[len(recs)-1].Seq, since, cur)
							return
						}
						for i, got := range recs {
							if i > 0 && got.Seq != recs[i-1].Seq+1 {
								t.Errorf("gap in one read: %d after %d", got.Seq, recs[i-1].Seq)
								return
							}
							want := stamp(cls, got.Seq)
							if got.TS != want.Now || got.PktSeq != want.Seq || got.Aux != want.Aux ||
								got.Len != int32(want.Work) || got.Class != int32(want.Class.ID()) {
								t.Errorf("torn record: %+v", got)
								return
							}
						}
						since = cur
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			batch := make([]core.Record, 0, 300)
			for seq, n := uint64(1), 1; seq <= total; n = n%300 + 37 {
				batch = batch[:0]
				for ; len(batch) < n && seq <= total; seq++ {
					batch = append(batch, stamp(cls, seq))
				}
				r.Apply(batch)
			}
			close(stop)
			wg.Wait()
			if r.Recorded() != total || r.Dropped() != total-uint64(size) {
				t.Fatalf("recorded = %d, dropped = %d", r.Recorded(), r.Dropped())
			}
			recs := r.Snapshot(nil)
			if len(recs) != size || recs[0].Seq != total-uint64(size)+1 {
				t.Fatalf("final snapshot: %d records from seq %d", len(recs), recs[0].Seq)
			}
		})
	}
}

func TestWriteEventsJSON(t *testing.T) {
	cls := classes(t, 4)
	r := flight.New(64)
	r.Apply([]core.Record{
		rec(core.EvDequeueRT, cls[2], 7, 1500, 1000, 250),
		rec(core.EvDrop, cls[3], 8, 100, 2000, int64(core.DropQueueLimit)),
	})
	var buf bytes.Buffer
	names := map[int32]string{2: "voice", 3: "bulk"}
	err := flight.WriteEvents(&buf, r.Snapshot(nil), func(c int32) string { return names[c] })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var ev flight.EventJSON
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "dequeue-rt" || ev.Name != "voice" || ev.Aux != 250 || ev.Len != 1500 {
		t.Fatalf("line 0: %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "drop" || ev.Reason != "queue-limit" || ev.Name != "bulk" {
		t.Fatalf("line 1: %+v", ev)
	}
}
