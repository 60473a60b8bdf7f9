package metrics

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
)

// The snapshot oracle: the aggregator's snapshot and merge as they were
// before snapshots were carved out of slabs — one append per class, one
// counts allocation per histogram, and merged classes appended one by one.
// A slab-built snapshot must equal these field for field, and render to
// the same exposition.

func oracleHist(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: h.set.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

func oracleSnapshot(a *Aggregator) *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := &Snapshot{
		Now:               a.lastEvent,
		UlimitDefers:      a.ulimitDefers,
		DropsUnknownClass: a.dropUnknown,
		DropsBadPacket:    a.dropBadPkt,
		DropsIntakeFull:   a.dropIntakeFull,
		DropsStopped:      a.dropStopped,
		SpansSampled:      a.spansSampled,
		SpanIntakeWait:    oracleHist(a.spanIntake),
		SpanQueueDelay:    oracleHist(a.spanQueue),
		FlightRecorded:    a.flightRecorded,
		FlightDropped:     a.flightDropped,
	}
	for _, st := range a.classes {
		if st == nil {
			continue
		}
		out.Classes = append(out.Classes, ClassSnapshot{
			ID:              st.id,
			Name:            st.name,
			Leaf:            st.leaf,
			EnqueuedPackets: st.enqPkts,
			EnqueuedBytes:   st.enqBytes,
			SentPacketsRT:   st.sentRTPkts,
			SentBytesRT:     st.sentRTBytes,
			SentPacketsLS:   st.sentLSPkts,
			SentBytesLS:     st.sentLSBytes,
			DropsQueueLimit: st.drops[core.DropQueueLimit],
			DeadlineMisses:  st.deadlineMiss,
			Activations:     st.activations,
			Corrections:     st.corrections,
			CorrectedCost:   st.correctedCost,
			QueuedPackets:   st.queuedPkts,
			QueuedBytes:     st.queuedBytes,
			RateBps:         st.rate.Rate(a.lastEvent),
			RateRTBps:       st.rateRT.Rate(a.lastEvent),
			DeadlineSlack:   oracleHist(&st.slack),
			QueueDelay:      oracleHist(&st.qdelay),
		})
	}
	return out
}

func oracleMerge(snaps []*Snapshot, remap func(shard, id int) (int, bool)) *Snapshot {
	out := &Snapshot{}
	for i, s := range snaps {
		if s == nil {
			continue
		}
		out.Now = max(out.Now, s.Now)
		out.UlimitDefers += s.UlimitDefers
		out.DropsUnknownClass += s.DropsUnknownClass
		out.DropsBadPacket += s.DropsBadPacket
		out.DropsIntakeFull += s.DropsIntakeFull
		out.DropsStopped += s.DropsStopped
		out.SpansSampled += s.SpansSampled
		out.FlightRecorded += s.FlightRecorded
		out.FlightDropped += s.FlightDropped
		mergeHist(&out.SpanIntakeWait, s.SpanIntakeWait)
		mergeHist(&out.SpanQueueDelay, s.SpanQueueDelay)
		for _, c := range s.Classes {
			id, ok := remap(i, c.ID)
			if !ok {
				continue
			}
			c.ID = id
			out.Classes = append(out.Classes, c)
		}
	}
	sort.Slice(out.Classes, func(a, b int) bool { return out.Classes[a].ID < out.Classes[b].ID })
	return out
}

func oracleAuditMerge(snaps []*audit.Snapshot, remap func(shard, id int) (int, bool)) *audit.Snapshot {
	out := &audit.Snapshot{}
	for i, s := range snaps {
		if s == nil {
			continue
		}
		out.Now = max(out.Now, s.Now)
		out.UlimitDefers += s.UlimitDefers
		for _, c := range s.Classes {
			id, ok := remap(i, c.ID)
			if !ok {
				continue
			}
			c.ID = id
			out.Classes = append(out.Classes, c)
		}
	}
	sort.Slice(out.Classes, func(a, b int) bool { return out.Classes[a].ID < out.Classes[b].ID })
	return out
}

func exposition(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oracleShard is one scheduler with both sinks behind a staging batch.
type oracleShard struct {
	s     *core.Scheduler
	batch *core.Batch
	agg   *Aggregator
	aud   *audit.Auditor
	made  int // classes created, for fresh names
}

const oracleLink = 100_000_000

func (sh *oracleShard) addClass(t *testing.T, rng *rand.Rand, idx int) {
	t.Helper()
	var rsc curve.SC
	if rng.Intn(2) == 0 {
		rsc = curve.Linear(oracleLink / 64)
	}
	// Names repeat across removals, so a re-created class gets a fresh id
	// under an old name; some need escaping.
	name := fmt.Sprintf("s%d/c%d", idx, sh.made%24)
	if sh.made%7 == 3 {
		name += "\"q\\\n"
	}
	sh.made++
	if _, err := sh.s.AddClass(nil, name, rsc, curve.Linear(oracleLink/32), curve.SC{}); err != nil {
		t.Fatal(err)
	}
}

func (sh *oracleShard) leaves() []*core.Class {
	var out []*core.Class
	for _, c := range sh.s.Classes() {
		if c != sh.s.Root() && c.IsLeaf() {
			out = append(out, c)
		}
	}
	return out
}

// remove takes an idle leaf out of the scheduler and both sinks, the way
// RemoveClass and idle collection do; it reports whether it could.
func (sh *oracleShard) remove(cl *core.Class) bool {
	if cl.QueueLen() > 0 || sh.s.RemoveClass(cl) != nil {
		return false
	}
	sh.batch.Publish()
	sh.agg.Forget(cl.ID())
	sh.aud.Forget(cl.ID())
	return true
}

// TestSnapshotMatchesOracle drives four shards through a seeded mix of
// enqueues (some over the queue limit), dequeues, corrections, class
// removals, idle collection sweeps and re-creations, and after every step
// checks each shard's snapshot, the four-shard merges and the merged
// exposition against the oracle.
func TestSnapshotMatchesOracle(t *testing.T) {
	const shards, steps = 4, 400
	rng := rand.New(rand.NewSource(23))
	var sh [shards]*oracleShard
	for i := range sh {
		agg, aud := NewAggregator(), audit.New(oracleLink)
		b := core.NewBatch(agg, aud)
		sh[i] = &oracleShard{
			s:     core.New(core.Options{Tracer: b, DefaultQueueLimit: 6}),
			batch: b, agg: agg, aud: aud,
		}
		for k := 0; k < 8; k++ {
			sh[i].addClass(t, rng, i)
		}
	}
	remap := func(shard, id int) (int, bool) { return id<<2 | shard, id != 0 }
	now := int64(0)
	out := make([]*pktq.Packet, 0, 16)
	seq := uint64(0)
	var removed, drops, audited, escaped int
	for step := 0; step < steps; step++ {
		now += int64(rng.Intn(200_000))
		for i, s := range sh {
			leaves := s.leaves()
			switch op := rng.Intn(20); {
			case op < 10 && len(leaves) > 0: // a burst of arrivals
				for k := rng.Intn(8); k >= 0; k-- {
					seq++
					cl := leaves[rng.Intn(len(leaves))]
					s.s.Enqueue(&pktq.Packet{Len: 64 + rng.Intn(1400), Class: cl.ID(), Seq: seq}, now)
				}
			case op < 15:
				out = s.s.DequeueN(now, 1+rng.Intn(12), out[:0])
			case op < 16 && len(leaves) > 0:
				cl := leaves[rng.Intn(len(leaves))]
				s.s.Correct(cl, 1000, int64(500+rng.Intn(1500)), pktq.ByLinkShare, now)
			case op < 17 && len(leaves) > 0: // RemoveClass
				if s.remove(leaves[rng.Intn(len(leaves))]) {
					removed++
				}
			case op < 18: // CollectIdle: every idle leaf goes
				for _, cl := range leaves {
					if s.remove(cl) {
						removed++
					}
				}
			default:
				s.addClass(t, rng, i)
			}
			s.batch.Publish()
		}

		var got, want [shards]*Snapshot
		var gotA, wantA [shards]*audit.Snapshot
		for i, s := range sh {
			got[i], want[i] = s.agg.Snapshot(), oracleSnapshot(s.agg)
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("step %d shard %d: snapshot differs from the oracle\ngot  %+v\nwant %+v", step, i, got[i], want[i])
			}
			if g, w := exposition(t, got[i]), exposition(t, want[i]); !bytes.Equal(g, w) {
				t.Fatalf("step %d shard %d: exposition differs from the oracle's\ngot\n%s\nwant\n%s", step, i, g, w)
			}
			gotA[i] = s.aud.Snapshot()
			wantA[i] = gotA[i]
		}
		merged, mergedWant := MergeSnapshots(got[:], remap), oracleMerge(want[:], remap)
		merged.Audit, mergedWant.Audit = audit.Merge(gotA[:], remap), oracleAuditMerge(wantA[:], remap)
		if !reflect.DeepEqual(merged, mergedWant) {
			t.Fatalf("step %d: merged snapshot differs from the oracle", step)
		}
		g, w := exposition(t, merged), exposition(t, mergedWant)
		if !bytes.Equal(g, w) {
			t.Fatalf("step %d: merged exposition differs from the oracle's\ngot\n%s\nwant\n%s", step, g, w)
		}
		if bytes.Contains(g, []byte(`\"q\\\n"`)) {
			escaped++
		}
		for _, c := range merged.Classes {
			drops += int(c.DropsQueueLimit)
		}
		audited += len(merged.Audit.Classes)
	}
	// The run must have reached every path it claims to cover.
	if removed < 20 || drops == 0 || audited == 0 || escaped == 0 {
		t.Fatalf("weak run: %d removals, %d drops, %d audited entries, %d escaped labels", removed, drops, audited, escaped)
	}
	t.Logf("%d removals, %d drops, %d audited entries, %d expositions with escaped labels", removed, drops, audited, escaped)
}

// TestSnapshotCountsDoNotAlias: the classes of one snapshot share one
// counts slab, so writing into or appending to one class's counts must
// leave every other histogram in the snapshot — and in a merge of it —
// unchanged.
func TestSnapshotCountsDoNotAlias(t *testing.T) {
	agg := NewAggregator()
	s := core.New(core.Options{Tracer: agg})
	for i := 0; i < 8; i++ {
		if _, err := s.AddClass(nil, fmt.Sprintf("c%d", i), curve.Linear(1e6), curve.Linear(1e6), curve.SC{}); err != nil {
			t.Fatal(err)
		}
	}
	now := int64(0)
	for _, cl := range s.Classes() {
		if cl == s.Root() {
			continue
		}
		for k := 0; k < 4; k++ {
			s.Enqueue(&pktq.Packet{Len: 100, Class: cl.ID()}, now)
		}
	}
	for s.Dequeue(now) != nil {
		now += 50_000
	}
	agg.ObserveSpan(1000, 2000, now)

	histograms := func(sn *Snapshot) []*HistogramSnapshot {
		hs := []*HistogramSnapshot{&sn.SpanIntakeWait, &sn.SpanQueueDelay}
		for i := range sn.Classes {
			hs = append(hs, &sn.Classes[i].DeadlineSlack, &sn.Classes[i].QueueDelay)
		}
		return hs
	}
	copies := func(hs []*HistogramSnapshot) [][]uint64 {
		out := make([][]uint64, len(hs))
		for i, h := range hs {
			out[i] = slices.Clone(h.Counts)
		}
		return out
	}
	snap := agg.Snapshot()
	merged := MergeSnapshots([]*Snapshot{snap}, nil)
	for _, sn := range []*Snapshot{snap, merged} {
		hs := histograms(sn)
		for victim := range hs {
			before := copies(hs)
			h := hs[victim]
			for i := range h.Counts {
				h.Counts[i] += 1000
			}
			h.Counts = append(h.Counts, 7, 7, 7)
			for i, other := range hs {
				if i != victim && !slices.Equal(other.Counts, before[i]) {
					t.Fatalf("writing histogram %d changed histogram %d: %v -> %v", victim, i, before[i], other.Counts)
				}
			}
			h.Counts = h.Counts[:len(before[victim])]
		}
	}
}
