package core_test

import (
	"testing"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
)

type recTracer struct {
	events []core.Event
	names  []string
}

func (r *recTracer) Trace(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
	r.events = append(r.events, ev)
	r.names = append(r.names, cl.Name())
}

func TestTracerEventSequence(t *testing.T) {
	tr := &recTracer{}
	s := core.New(core.Options{Tracer: tr, DefaultQueueLimit: 1})
	a := mustAdd(t, s, nil, "a", lin(mbps), lin(mbps), curve.SC{})

	s.Enqueue(&pktq.Packet{Len: 100, Class: a.ID()}, 0) // enqueue + activate
	s.Enqueue(&pktq.Packet{Len: 100, Class: a.ID()}, 0) // drop (limit 1)
	if p := s.Dequeue(0); p == nil {                    // dequeue-rt + passive
		t.Fatal("dequeue failed")
	}

	want := []core.Event{core.EvActivate, core.EvEnqueue, core.EvDrop, core.EvDequeueRT, core.EvPassive}
	// Activation order relative to enqueue depends on internal sequencing;
	// compare as multisets plus pairing checks instead of exact order.
	count := map[core.Event]int{}
	for _, e := range tr.events {
		count[e]++
	}
	for _, e := range want {
		if count[e] == 0 {
			t.Fatalf("missing event %v in %v", e, tr.events)
		}
	}
	if count[core.EvActivate] != count[core.EvPassive] {
		t.Fatalf("activate/passive not paired: %v", tr.events)
	}
	// All events reference class "a".
	for i, n := range tr.names {
		if n != "a" {
			t.Fatalf("event %d on class %q", i, n)
		}
	}
	// Event stringer sanity.
	if core.EvDequeueRT.String() != "dequeue-rt" || core.Event(99).String() != "unknown" {
		t.Fatal("event strings")
	}
}

// The criterion reported by the tracer must agree with the packet's Crit
// field across a mixed run.
func TestTracerCriterionAgreement(t *testing.T) {
	type got struct {
		ev core.Event
		p  *pktq.Packet
	}
	var log []got
	tr := traceFn(func(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
		if ev == core.EvDequeueRT || ev == core.EvDequeueLS {
			log = append(log, got{ev, p})
		}
	})
	s := core.New(core.Options{Tracer: tr})
	a := mustAdd(t, s, nil, "a", lin(mbps), lin(mbps), curve.SC{})
	b := mustAdd(t, s, nil, "b", curve.SC{}, lin(mbps), curve.SC{})
	now := int64(0)
	for i := 0; i < 200; i++ {
		s.Enqueue(&pktq.Packet{Len: 500, Class: a.ID(), Seq: uint64(i)}, now)
		s.Enqueue(&pktq.Packet{Len: 500, Class: b.ID(), Seq: uint64(i)}, now)
		s.Dequeue(now)
		s.Dequeue(now)
		now += 4 * 1_000_000
	}
	if len(log) == 0 {
		t.Fatal("no dequeue events")
	}
	sawRT, sawLS := false, false
	for _, g := range log {
		switch g.ev {
		case core.EvDequeueRT:
			sawRT = true
			if g.p.Crit != pktq.ByRealTime {
				t.Fatal("criterion mismatch (rt)")
			}
		case core.EvDequeueLS:
			sawLS = true
			if g.p.Crit != pktq.ByLinkShare {
				t.Fatal("criterion mismatch (ls)")
			}
		}
	}
	if !sawRT || !sawLS {
		t.Fatalf("expected both criteria in a mixed run (rt=%v ls=%v)", sawRT, sawLS)
	}
}

// Every declared event must render a real string: an "unknown" here means
// someone added an event without a String case, which would make flight
// recorder dumps unreadable.
func TestEventStringsComplete(t *testing.T) {
	seen := map[string]core.Event{}
	for i := 0; i < core.EventCount; i++ {
		ev := core.Event(i)
		s := ev.String()
		if s == "unknown" || s == "" {
			t.Fatalf("event %d has no String case", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("events %d and %d share the string %q", prev, ev, s)
		}
		seen[s] = ev
	}
	if core.Event(core.EventCount).String() != "unknown" {
		t.Fatal("sentinel should render unknown")
	}
}

// recSink records every batch it is handed.
type recSink struct {
	recs    []core.Record
	batches int
}

func (r *recSink) Apply(recs []core.Record) {
	r.recs = append(r.recs, recs...)
	r.batches++
}

// A Batch must hand every staged event to each sink once, in order, only
// when published; and clear what it published.
func TestBatchPublishesInOrder(t *testing.T) {
	direct := &recTracer{}
	a, b := &recSink{}, &recSink{}
	batch := core.NewBatch(a, b)
	s := core.New(core.Options{Tracer: traceFn(func(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
		direct.Trace(ev, cl, p, now, aux)
		batch.Trace(ev, cl, p, now, aux)
	})})
	cl := mustAdd(t, s, nil, "a", lin(mbps), lin(mbps), curve.SC{})
	s.Enqueue(&pktq.Packet{Len: 100, Class: cl.ID(), Seq: 7, Arrival: 3}, 5)
	if s.Dequeue(9) == nil {
		t.Fatal("dequeue failed")
	}
	if len(a.recs) != 0 {
		t.Fatalf("sink saw %d records before Publish", len(a.recs))
	}
	batch.Publish()
	batch.Publish() // nothing staged: no second batch
	if a.batches != 1 || b.batches != 1 {
		t.Fatalf("batches = %d, %d, want 1 each", a.batches, b.batches)
	}
	if len(a.recs) != len(direct.events) || len(b.recs) != len(direct.events) {
		t.Fatalf("published %d/%d records, traced %d", len(a.recs), len(b.recs), len(direct.events))
	}
	for i, ev := range direct.events {
		if a.recs[i].Ev != ev || b.recs[i].Ev != ev || a.recs[i].Class != cl {
			t.Fatalf("record %d: %+v / %+v, want %v on a", i, a.recs[i], b.recs[i], ev)
		}
		if ev == core.EvEnqueue {
			if r := a.recs[i]; r.Seq != 7 || r.Work != 100 || r.Arrival != 3 || r.Now != 5 {
				t.Fatalf("enqueue record lost packet fields: %+v", r)
			}
		}
	}
	// A full batch publishes on its own before taking more.
	for i := 0; i < 1000; i++ {
		batch.Trace(core.EvUlimitDefer, nil, nil, int64(i), 0)
	}
	if got := len(a.recs) - len(direct.events); got < 1000-256 || got >= 1000 {
		t.Fatalf("%d of 1000 records published before Publish", got)
	}
	batch.Publish()
	for i, r := range a.recs[len(direct.events):] {
		if r.Now != int64(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
		// Slots are reused in place: a packet-less event must not inherit
		// an earlier record's class or packet fields.
		if r.Class != nil || r.Seq != 0 || r.Work != 0 || r.Arrival != 0 {
			t.Fatalf("record %d carries stale fields: %+v", i, r)
		}
	}
}

// traceFn adapts a function to the Tracer interface.
type traceFn func(core.Event, *core.Class, *pktq.Packet, int64, int64)

func (f traceFn) Trace(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
	f(ev, cl, p, now, aux)
}
