package hfsc_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/core"
)

// treeLeaf finds a leaf row by global id across all shards of a snapshot.
func treeLeaf(tr hfsc.TreeSnapshot, id int) (hfsc.TreeClass, bool) {
	for _, sh := range tr.Shards {
		for _, c := range sh.Classes {
			if c.ID == id && c.Leaf {
				return c, true
			}
		}
	}
	return hfsc.TreeClass{}, false
}

// TestDumpTreeMatchesSnapshot is the acceptance cross-check: the
// introspection tree (the /debug/hfsc/tree payload) and the metrics
// snapshot are two independent views of the same scheduler — per-class
// cumulative work, sent packets, backlog and drops must agree exactly.
func TestDumpTreeMatchesSnapshot(t *testing.T) {
	t.Run("scheduler", func(t *testing.T) {
		// Unpaced public scheduler, driven by hand with a live backlog:
		// enqueue three packets per class, dequeue until only some remain.
		s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps, Metrics: true, Flight: true})
		var ids []int
		for i := 0; i < 4; i++ {
			cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i), hfsc.ClassConfig{
				RealTime:  hfsc.Linear(hfsc.Mbps),
				LinkShare: hfsc.Linear(hfsc.Mbps),
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, cl.ID())
		}
		now := int64(0)
		for seq, id := range ids {
			for k := 0; k < 3; k++ {
				s.Offer(&hfsc.Packet{Len: 1000, Class: id, Seq: uint64(seq*3 + k)}, now)
			}
		}
		for i := 0; i < 5; i++ { // leave 12-5=7 packets backlogged
			now += 800_000
			if s.Dequeue(now) == nil {
				t.Fatal("scheduler idled with backlog")
			}
		}

		tr := s.DumpTree()
		snap := s.Snapshot()
		if len(tr.Shards) != 1 {
			t.Fatalf("scheduler tree has %d shards, want 1", len(tr.Shards))
		}
		var queued int
		for _, id := range ids {
			tc, ok := treeLeaf(tr, id)
			if !ok {
				t.Fatalf("class %d missing from tree", id)
			}
			cs, ok := snap.Class(id)
			if !ok {
				t.Fatalf("class %d missing from snapshot", id)
			}
			if tc.TotalBytes != cs.SentBytes() {
				t.Errorf("class %d: tree TotalBytes %d != snapshot SentBytes %d",
					id, tc.TotalBytes, cs.SentBytes())
			}
			if tc.SentPackets != cs.SentPackets() {
				t.Errorf("class %d: tree SentPackets %d != snapshot %d",
					id, tc.SentPackets, cs.SentPackets())
			}
			if int64(tc.QueuedPackets) != cs.QueuedPackets || tc.QueuedBytes != cs.QueuedBytes {
				t.Errorf("class %d: tree backlog %d/%dB != snapshot %d/%dB",
					id, tc.QueuedPackets, tc.QueuedBytes, cs.QueuedPackets, cs.QueuedBytes)
			}
			if tc.Dropped != cs.DropsQueueLimit {
				t.Errorf("class %d: tree Dropped %d != snapshot %d", id, tc.Dropped, cs.DropsQueueLimit)
			}
			queued += tc.QueuedPackets
		}
		if queued != 7 {
			t.Fatalf("tree shows %d queued packets, want 7", queued)
		}
		// The root's cumulative work covers every dequeued byte.
		root := tr.Shards[0].Classes[0]
		if root.Parent != -1 || root.TotalBytes != 5*1000 {
			t.Fatalf("root work = %d (parent %d), want 5000 at parent -1", root.TotalBytes, root.Parent)
		}
	})

	t.Run("multiqueue", func(t *testing.T) {
		// 4-shard run driven to quiescence; the merged snapshot and the
		// per-shard trees must then agree class by class, and the tree must
		// round-trip through JSON (the HTTP handler's encoding).
		const classes, per = 8, 500
		m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
			Config: hfsc.Config{LinkRate: 400_000_000 * hfsc.Bps, Metrics: true, Flight: true, Spans: 64},
			Shards: 4,
		}, func(p *hfsc.Packet) { p.Release() })
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, classes)
		for i := range ids {
			id, err := m.AddClass("", fmt.Sprintf("p%d", i), hfsc.ClassConfig{
				LinkShare: hfsc.Linear(400_000_000 / classes),
			})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		m.Start()
		var accepted uint64
		for seq := 0; seq < per; seq++ {
			for _, id := range ids {
				p := hfsc.GetPacket()
				p.Len, p.Class, p.Seq = 200, id, uint64(seq)
				for m.Submit(p) == hfsc.DropIntakeFull {
					time.Sleep(50 * time.Microsecond)
				}
				accepted++
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for m.Stats().SentPackets != accepted {
			if time.Now().After(deadline) {
				t.Fatalf("timed out: sent %d of %d", m.Stats().SentPackets, accepted)
			}
			time.Sleep(time.Millisecond)
		}
		m.Stop()

		tr := m.DumpTree()
		snap := m.Snapshot()
		if len(tr.Shards) != 4 {
			t.Fatalf("tree has %d shards, want 4", len(tr.Shards))
		}
		for _, id := range ids {
			tc, ok := treeLeaf(tr, id)
			if !ok {
				t.Fatalf("global class %d missing from tree", id)
			}
			cs, ok := snap.Class(id)
			if !ok {
				t.Fatalf("global class %d missing from merged snapshot", id)
			}
			if tc.TotalBytes != cs.SentBytes() || tc.SentPackets != cs.SentPackets() {
				t.Errorf("class %d: tree %dB/%dpkts != snapshot %dB/%dpkts",
					id, tc.TotalBytes, tc.SentPackets, cs.SentBytes(), cs.SentPackets())
			}
			if tc.QueuedPackets != 0 || cs.QueuedPackets != 0 {
				t.Errorf("class %d: backlog after quiescence (tree %d, snapshot %d)",
					id, tc.QueuedPackets, cs.QueuedPackets)
			}
		}
		raw, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var back hfsc.TreeSnapshot
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if len(back.Shards) != 4 || back.LinkRateBps != tr.LinkRateBps {
			t.Fatalf("tree did not survive a JSON round trip: %+v", back)
		}

		// The merged flight stream carries the run: transmit events for
		// every class, global ids, timestamps nondecreasing.
		evs := m.FlightEvents(nil)
		if len(evs) == 0 {
			t.Fatal("no flight events after a 4k-packet run")
		}
		seen := map[int32]bool{}
		for i, r := range evs {
			if i > 0 && r.TS < evs[i-1].TS {
				t.Fatalf("flight events out of order at %d: %d after %d", i, r.TS, evs[i-1].TS)
			}
			if r.Shard < 0 || r.Shard >= 4 {
				t.Fatalf("event %d has shard %d", i, r.Shard)
			}
			if r.Ev == core.EvTransmit {
				seen[r.Class] = true
			}
		}
		for _, id := range ids {
			if !seen[int32(id)] {
				t.Errorf("no transmit event for global class %d in the merged stream", id)
			}
		}
	})
}

// TestFlightConcurrentReaders stresses the lock-free ring under -race: a
// 4-shard run with hot producers while several goroutines concurrently
// read the merged event stream, follow each shard's records in it, and
// snapshot the class tree. Readers validate structural invariants on every
// batch — torn records would surface as nonsense events, wraps as sequence
// gaps inside one read.
func TestFlightConcurrentReaders(t *testing.T) {
	const (
		producers = 4
		perProd   = 4000
	)
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{
			LinkRate:      400_000_000 * hfsc.Bps,
			Metrics:       true,
			Flight:        true,
			FlightRecords: 512, // tiny rings so readers race live wraps
			Spans:         8,
		},
		Shards: 4,
	}, func(p *hfsc.Packet) { p.Release() })
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]int, producers)
	for i := range classes {
		id, err := m.AddClass("", fmt.Sprintf("p%d", i), hfsc.ClassConfig{
			LinkShare: hfsc.Linear(400_000_000 / producers),
		})
		if err != nil {
			t.Fatal(err)
		}
		classes[i] = id
	}
	maxClass := int32(0)
	for _, id := range classes {
		if int32(id) >= maxClass {
			maxClass = int32(id) + 1
		}
	}
	m.Start()

	stop := make(chan struct{})
	var failMu sync.Mutex
	var readErr string
	fail := func(format string, args ...any) {
		failMu.Lock()
		if readErr == "" {
			readErr = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
	}
	var readers sync.WaitGroup

	// Merged-stream readers: global ids, per-shard order preserved.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []hfsc.FlightRecord
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = m.FlightEvents(buf[:0])
				for i, rec := range buf {
					if i > 0 && rec.TS < buf[i-1].TS {
						fail("merged stream out of order: %d after %d", rec.TS, buf[i-1].TS)
					}
					if int(rec.Ev) >= core.EventCount {
						fail("torn record: event %d out of range", rec.Ev)
					}
					if rec.Class < -1 || rec.Class >= maxClass {
						fail("torn record: class %d out of range", rec.Class)
					}
				}
			}
		}()
	}
	// Per-shard followers: within one merged read each shard's records are
	// its ring's window in order, so their Seq is gapless; across reads a
	// shard's newest Seq never moves back.
	if m.FlightRecorder() != nil {
		t.Fatal("a 4-shard queue has no single recorder")
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		var newest [4]uint64
		var buf []hfsc.FlightRecord
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = m.FlightEvents(buf[:0])
			var last [4]uint64
			for _, r := range buf {
				if r.Shard < 0 || r.Shard >= 4 {
					fail("record with shard %d", r.Shard)
					continue
				}
				if prev := last[r.Shard]; prev != 0 && r.Seq != prev+1 {
					fail("shard %d: gap inside one read: %d then %d", r.Shard, prev, r.Seq)
				}
				last[r.Shard] = r.Seq
			}
			for sh, seq := range last {
				if seq != 0 && seq < newest[sh] {
					fail("shard %d: newest seq went back from %d to %d", sh, newest[sh], seq)
				}
				newest[sh] = max(newest[sh], seq)
			}
		}
	}()
	// Tree snapshotter: exercises Inspect against the pacing goroutines.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr := m.DumpTree()
			if len(tr.Shards) != 4 {
				fail("tree lost shards: %d", len(tr.Shards))
			}
		}
	}()

	var prods sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		prods.Add(1)
		go func(pr int) {
			defer prods.Done()
			for seq := 0; seq < perProd; seq++ {
				p := hfsc.GetPacket()
				p.Len, p.Class, p.Seq = 100, classes[pr], uint64(seq)
				for m.Submit(p) == hfsc.DropIntakeFull {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(pr)
	}
	prods.Wait()
	time.Sleep(10 * time.Millisecond) // let readers race the tail of the run
	close(stop)
	readers.Wait()
	m.Stop()

	if readErr != "" {
		t.Fatal(readErr)
	}
	shardsSeen := map[int32]bool{}
	for _, r := range m.FlightEvents(nil) {
		shardsSeen[r.Shard] = true
	}
	if snap := m.Snapshot(); snap.FlightRecorded == 0 || len(shardsSeen) != 4 {
		t.Fatalf("recorded %d events on %d of 4 shards", snap.FlightRecorded, len(shardsSeen))
	}
}
