package hfsc_test

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
)

// TestMultiQueueCoarseClockSpans stresses the coarse-clock stamp paths
// the plain conservation test leaves cold: with span sampling on, 16
// producers read the shared clock on every Submit while 4 shard pacing
// goroutines race to advance it. Run under -race by make check; asserts
// conservation, intra-class FIFO, and that sampled spans made it into
// the merged metrics.
func TestMultiQueueCoarseClockSpans(t *testing.T) {
	const (
		producers = 16
		perProd   = 1000
		batch     = 8
	)
	var mu sync.Mutex
	lastSeq := make(map[int]uint64, producers)
	var transmitted uint64
	reordered := false
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{
			LinkRate: 400_000_000 * hfsc.Bps,
			Metrics:  true,
			Spans:    4,
		},
		Shards: 4,
	}, func(p *hfsc.Packet) {
		mu.Lock()
		if last, ok := lastSeq[p.Class]; ok && p.Seq <= last {
			reordered = true
		}
		lastSeq[p.Class] = p.Seq
		transmitted++
		mu.Unlock()
		p.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.IntakeDepth = 128
	hfsc.SetRebalanceEvery(m, 2*time.Millisecond)
	classes := make([]int, producers)
	for i := range classes {
		id, err := m.AddClass("", fmt.Sprintf("c%d", i), hfsc.ClassConfig{
			LinkShare: hfsc.Linear(400_000_000 / producers),
		})
		if err != nil {
			t.Fatal(err)
		}
		classes[i] = id
	}
	m.Start()
	defer m.Stop()

	var accepted, dropped [producers]uint64
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			ps := make([]*hfsc.Packet, 0, batch)
			seq := uint64(1)
			for seq <= perProd {
				ps = ps[:0]
				for len(ps) < batch && seq <= perProd {
					p := hfsc.GetPacket()
					p.Len = 200
					p.Class = classes[pr]
					p.Seq = seq
					seq++
					ps = append(ps, p)
				}
				rest := ps
				for len(rest) > 0 {
					n, r := m.SubmitN(rest)
					accepted[pr] += uint64(n)
					rest = rest[n:]
					switch r {
					case hfsc.DropNone:
					case hfsc.DropIntakeFull:
						dropped[pr]++
						rest[0].Release()
						rest = rest[1:]
					default:
						t.Errorf("producer %d: unexpected reason %v", pr, r)
						return
					}
				}
			}
		}(pr)
	}
	wg.Wait()

	var totalAccepted uint64
	for pr := 0; pr < producers; pr++ {
		if accepted[pr]+dropped[pr] != perProd {
			t.Fatalf("producer %d: %d accepted + %d dropped != %d", pr, accepted[pr], dropped[pr], perProd)
		}
		totalAccepted += accepted[pr]
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.Stats()
		if st.SentPackets == totalAccepted {
			break
		}
		if st.SentPackets > totalAccepted {
			t.Fatalf("sent %d > accepted %d (duplication)", st.SentPackets, totalAccepted)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: sent %d of %d accepted", st.SentPackets, totalAccepted)
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()

	mu.Lock()
	defer mu.Unlock()
	if reordered {
		t.Fatal("intra-class reordering observed")
	}
	if transmitted != totalAccepted {
		t.Fatalf("transmit saw %d packets, accepted %d", transmitted, totalAccepted)
	}
	snap := m.Snapshot()
	if snap == nil {
		t.Fatal("metrics enabled but Snapshot is nil")
	}
	if snap.SpansSampled == 0 {
		t.Fatal("span sampling on but no spans recorded")
	}
	// Coarse stamps are taken from a monotone clock ordered before the
	// drain pass, so the decomposition components are genuinely
	// non-negative (not merely clamped); each histogram must have folded
	// in every sampled span.
	for name, h := range map[string]hfsc.HistogramSnapshot{
		"intake_wait": snap.SpanIntakeWait,
		"queue_delay": snap.SpanQueueDelay,
	} {
		if h.Count != snap.SpansSampled {
			t.Fatalf("span %s histogram count %d, want %d", name, h.Count, snap.SpansSampled)
		}
		if h.Sum < 0 {
			t.Fatalf("span %s histogram sum %d < 0", name, h.Sum)
		}
	}
}

func TestMultiQueueClassManagement(t *testing.T) {
	var rejected atomic.Uint64
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: hfsc.Mbps, Metrics: true},
		Shards: 2,
	}, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	m.OnReject = func(p *hfsc.Packet, r hfsc.DropReason) {
		if r == hfsc.DropUnknownClass && p.Class == 99 {
			rejected.Add(1)
		}
	}
	parent, err := m.AddClass("", "agency", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps / 2)})
	if err != nil {
		t.Fatal(err)
	}
	child, err := m.AddClass("agency", "video", hfsc.ClassConfig{
		RealTime:  hfsc.Linear(100 * hfsc.Kbps),
		LinkShare: hfsc.Linear(hfsc.Mbps / 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if hfsc.ShardOf(m, child) != hfsc.ShardOf(m, parent) {
		t.Fatalf("child on shard %d, parent on %d: subtrees must not split", hfsc.ShardOf(m, child), hfsc.ShardOf(m, parent))
	}
	// The tree shows the hierarchy under queue ids: the top-level class's
	// parent is its shard's root (-1), the child's is the top-level class.
	var seen []hfsc.TreeClass
	for _, sh := range m.DumpTree().Shards {
		for _, c := range sh.Classes {
			if c.ID >= 0 {
				seen = append(seen, c)
			}
		}
	}
	if len(seen) != 2 || seen[0].ID != parent || seen[1].ID != child {
		t.Fatalf("tree classes = %+v, want agency then video", seen)
	}
	if seen[0].Parent != -1 || seen[1].Parent != parent {
		t.Fatalf("parents %d/%d, want -1/%d", seen[0].Parent, seen[1].Parent, parent)
	}
	if seen[0].Leaf || !seen[1].Leaf {
		t.Fatal("leaf flags wrong")
	}
	if id, ok := m.ClassID("video"); !ok || id != child {
		t.Fatal("name lookup broken")
	}
	if _, ok := m.ClassID("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	// Both land on shard 0 as its local classes 1 and 2: id = local<<1 | 0.
	if parent != 2 || child != 4 {
		t.Fatalf("queue ids %d/%d, want 2/4", parent, child)
	}
	if _, err := m.AddClass("", "video", hfsc.ClassConfig{LinkShare: hfsc.Linear(1)}); !errors.Is(err, hfsc.ErrDuplicateClass) {
		t.Fatalf("duplicate name across shards: %v", err)
	}

	m.Start()
	defer m.Stop()
	// The hierarchy is dynamic: classes can be added while the shards run.
	late, err := m.AddClass("", "late", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if err != nil {
		t.Fatalf("AddClass after Start: %v", err)
	}
	if m.Submit(&hfsc.Packet{Len: 100, Class: late}) != hfsc.DropNone {
		t.Fatal("submit to live-added class refused")
	}
	if err := m.RemoveClass("nope"); !errors.Is(err, hfsc.ErrUnknownClass) {
		t.Fatalf("RemoveClass(unknown) = %v", err)
	}
	// 99 names shard 1 but was never issued: intake accepts it and the
	// shard refuses it at drain time.
	if r := m.Submit(&hfsc.Packet{Len: 100, Class: 99}); r != hfsc.DropNone {
		t.Fatalf("in-range unknown class returned %v, want intake acceptance", r)
	}
	if r := m.Submit(&hfsc.Packet{Len: 0, Class: child}); r != hfsc.DropBadPacket {
		t.Fatalf("bad packet returned %v", r)
	}
	if m.Submit(&hfsc.Packet{Len: 100, Class: child}) != hfsc.DropNone {
		t.Fatal("valid submit refused")
	}
	waitFor(t, func() bool { return rejected.Load() == 1 }, "the drain-time refusal of class 99")
	if got := m.Snapshot().DropsUnknownClass; got != 1 {
		t.Fatalf("DropsUnknownClass = %d, want 1", got)
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMultiQueueSubmitNPrefix pins the batch-intake contract on one shard
// and on four: packets are accepted in order up to the first refusal, the
// refused packet stays with the caller under its queue id, a batch that
// spans shards still rings the doorbells of shards already fed, and only
// the attempted refusal is counted.
func TestMultiQueueSubmitNPrefix(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			q := newTestQueue(t, hfsc.MultiConfig{Config: hfsc.Config{LinkRate: hfsc.Mbps}, Shards: shards}, func(p *hfsc.Packet) {})
			q.IntakeDepth = 8 // no consumer running: rings fill and stay full
			ids := make([]int, shards)
			onShard := map[int]bool{}
			for i := range ids {
				var err error
				if ids[i], err = q.AddClass("", fmt.Sprintf("c%d", i), hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps / uint64(shards))}); err != nil {
					t.Fatal(err)
				}
				onShard[hfsc.ShardOf(q, ids[i])] = true
			}
			if len(onShard) != shards {
				t.Fatalf("%d equal top-level classes share shards: %v", shards, onShard)
			}
			if n, r := q.SubmitN(nil); n != 0 || r != hfsc.DropNone {
				t.Fatalf("empty batch: %d/%v", n, r)
			}
			mix := make([]*hfsc.Packet, 8*shards+4)
			for i := range mix {
				mix[i] = &hfsc.Packet{Len: 100, Class: ids[i%shards], Seq: uint64(i)}
			}
			n, r := q.SubmitN(mix)
			if n != 8*shards || r != hfsc.DropIntakeFull {
				t.Fatalf("SubmitN = %d/%v, want %d/DropIntakeFull (8 per shard)", n, r, 8*shards)
			}
			if mix[n].Class != ids[n%shards] {
				t.Fatalf("refused packet's class rewritten to %d", mix[n].Class)
			}
			if st := q.Stats(); st.DropsIntakeFull != 1 || st.IntakeBacklog != 8*shards {
				t.Fatalf("stats = %+v, want exactly the one attempted refusal counted", st)
			}

			// A bad packet or an id naming no shard mid-batch stops the
			// batch there; a never-issued id that names a shard is accepted
			// and refused at drain time.
			var unknown atomic.Uint64
			q2 := newTestQueue(t, hfsc.MultiConfig{Config: hfsc.Config{LinkRate: hfsc.Mbps, Metrics: true}, Shards: shards}, func(p *hfsc.Packet) {})
			q2.OnReject = func(p *hfsc.Packet, r hfsc.DropReason) {
				if r == hfsc.DropUnknownClass {
					unknown.Add(1)
				}
			}
			ac, err := q2.AddClass("", "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
			if err != nil {
				t.Fatal(err)
			}
			q2.Start()
			defer q2.Stop()
			if n, r := q2.SubmitN([]*hfsc.Packet{{Len: 100, Class: ac}, {Len: 100, Class: 1 << 20}}); n != 2 || r != hfsc.DropNone {
				t.Fatalf("never-issued id mid-batch = %d/%v, want 2/DropNone", n, r)
			}
			waitFor(t, func() bool { return unknown.Load() == 1 }, "the drain-time refusal")
			if got := q2.Snapshot().DropsUnknownClass; got != 1 {
				t.Fatalf("DropsUnknownClass = %d, want 1", got)
			}
			if n, r := q2.SubmitN([]*hfsc.Packet{{Len: 100, Class: ac}, {Len: 100, Class: -1}}); n != 1 || r != hfsc.DropUnknownClass {
				t.Fatalf("negative id mid-batch = %d/%v", n, r)
			}
			if n, r := q2.SubmitN([]*hfsc.Packet{{Len: 0, Class: ac}}); n != 0 || r != hfsc.DropBadPacket {
				t.Fatalf("bad mid-batch = %d/%v", n, r)
			}
		})
	}
}

// TestPacedQueueIDEncoding pins the computed class ids: id = local<<b |
// shard with b = bits.Len(shards-1), the identity with one shard, and
// synchronous refusal of ids that name no shard.
func TestPacedQueueIDEncoding(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := bits.Len(uint(shards - 1))
			var mu sync.Mutex
			sent := map[int]int{}
			var refused []int
			q := newTestQueue(t, hfsc.MultiConfig{Config: hfsc.Config{LinkRate: hfsc.Gbps, Metrics: true}, Shards: shards}, func(p *hfsc.Packet) {
				mu.Lock()
				sent[p.Class]++
				mu.Unlock()
			})
			q.OnReject = func(p *hfsc.Packet, r hfsc.DropReason) {
				mu.Lock()
				if r == hfsc.DropUnknownClass {
					refused = append(refused, p.Class)
				}
				mu.Unlock()
			}
			// One top-level class per shard (placement spreads equal
			// classes round-robin), each with a child on its shard.
			for i := 0; i < shards; i++ {
				if _, err := q.AddClass("", fmt.Sprintf("g%d", i), hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
					t.Fatal(err)
				}
				if _, err := q.AddClass(fmt.Sprintf("g%d", i), fmt.Sprintf("g%d/k", i), hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
					t.Fatal(err)
				}
			}
			// global -> (shard, local) -> global, shard by shard (Inspect
			// visits them in order).
			shard, checked := 0, 0
			q.Inspect(func(s *hfsc.Scheduler) {
				for _, c := range s.Classes()[1:] {
					id, ok := q.ClassID(c.Name())
					if !ok || id != c.ID()<<b|shard || id>>b != c.ID() || hfsc.ShardOf(q, id) != shard {
						t.Errorf("class %q: id %d (ok %v) on shard %d, local %d", c.Name(), id, ok, shard, c.ID())
					}
					if shards == 1 && id != c.ID() {
						t.Errorf("one shard: id %d != scheduler id %d", id, c.ID())
					}
					checked++
				}
				shard++
			})
			if shard != shards || checked != 2*shards {
				t.Fatalf("inspected %d classes on %d shards, want %d on %d", checked, shard, 2*shards, shards)
			}

			// Ids that name no shard are refused at once by every submit
			// form, with the packet left as it was.
			bad := []int{-1, -1 << 20}
			if shards < 1<<b {
				bad = append(bad, 1<<b|shards, 5<<b|(1<<b-1))
			}
			if shards == 3 && bad[2] != 7 {
				t.Fatalf("shard part 3 of 3 shards encodes as %d, want 7", bad[2])
			}
			valid, _ := q.ClassID("g0/k")
			for _, id := range bad {
				p := &hfsc.Packet{Len: 100, Class: id}
				if r := q.Submit(p); r != hfsc.DropUnknownClass || p.Class != id {
					t.Errorf("Submit(%d) = %v (class now %d)", id, r, p.Class)
				}
				if n, r := q.SubmitN([]*hfsc.Packet{{Len: 100, Class: valid}, p}); n != 1 || r != hfsc.DropUnknownClass {
					t.Errorf("SubmitN(valid, %d) = %d/%v", id, n, r)
				}
			}
			if r := q.Submit(nil); r != hfsc.DropBadPacket {
				t.Errorf("Submit(nil) = %v", r)
			}
			if n, r := q.SubmitN([]*hfsc.Packet{nil}); n != 0 || r != hfsc.DropBadPacket {
				t.Errorf("SubmitN(nil) = %d/%v", n, r)
			}
			if got, want := q.Snapshot().DropsUnknownClass, uint64(2*len(bad)); got != want {
				t.Errorf("DropsUnknownClass = %d, want %d", got, want)
			}

			// A packet for a removed class, still in intake, is refused at
			// drain time and never lands on the class re-created under its
			// name.
			stale := &hfsc.Packet{Len: 100, Class: valid}
			if r := q.Submit(stale); r != hfsc.DropNone {
				t.Fatalf("submit: %v", r)
			}
			if err := q.RemoveClass("g0/k"); err != nil {
				t.Fatal(err)
			}
			fresh, err := q.AddClass("g0", "g0/k", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
			if err != nil {
				t.Fatal(err)
			}
			if fresh == valid {
				t.Fatalf("re-created class reused id %d", fresh)
			}
			q.Start()
			defer q.Stop()
			if r := q.Submit(&hfsc.Packet{Len: 100, Class: fresh}); r != hfsc.DropNone {
				t.Fatalf("submit to the re-created class: %v", r)
			}
			// The SubmitN probes above put one accepted packet per bad id
			// on the old class too.
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(refused) == 1+len(bad) && sent[fresh] == 1
			}, "the stale refusals and the fresh transmit")
			mu.Lock()
			defer mu.Unlock()
			for _, id := range refused {
				if id != valid {
					t.Errorf("refused packet carries id %d, want the retired %d", id, valid)
				}
			}
			if sent[valid] != 0 || len(sent) != 1 {
				t.Errorf("transmits %v, want only the re-created class %d", sent, fresh)
			}
		})
	}
}

// TestMultiQueueMergedMetrics checks the cross-shard snapshot: classes
// from different shards appear under their global ids and names, and
// driver-level unknown-class drops are folded in.
func TestMultiQueueMergedMetrics(t *testing.T) {
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: 10_000_000 * hfsc.Bps, Metrics: true},
		Shards: 2,
	}, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	var rejected atomic.Uint64
	m.OnReject = func(*hfsc.Packet, hfsc.DropReason) { rejected.Add(1) }
	a, _ := m.AddClass("", "voice", hfsc.ClassConfig{LinkShare: hfsc.Linear(5_000_000)})
	b, _ := m.AddClass("", "bulk", hfsc.ClassConfig{LinkShare: hfsc.Linear(5_000_000)})
	if hfsc.ShardOf(m, a) == hfsc.ShardOf(m, b) {
		t.Fatal("classes share a shard; test needs a cross-shard merge")
	}
	m.Start()
	m.Submit(&hfsc.Packet{Len: 500, Class: a})
	m.Submit(&hfsc.Packet{Len: 700, Class: b})
	m.Submit(&hfsc.Packet{Len: 1, Class: 77}) // never issued: refused by shard 1 at drain time

	waitFor(t, func() bool { return m.Stats().SentPackets == 2 && rejected.Load() == 1 }, "2 transmits and 1 refusal")
	m.Stop()

	snap := m.Snapshot()
	if snap == nil {
		t.Fatal("nil snapshot with Metrics enabled")
	}
	if snap.DropsUnknownClass != 1 {
		t.Fatalf("DropsUnknownClass = %d, want 1", snap.DropsUnknownClass)
	}
	if len(snap.Classes) != 2 {
		t.Fatalf("merged snapshot has %d classes, want 2: %+v", len(snap.Classes), snap.Classes)
	}
	for i, want := range []struct {
		id   int
		name string
	}{{a, "voice"}, {b, "bulk"}} {
		if snap.Classes[i].ID != want.id || snap.Classes[i].Name != want.name {
			t.Fatalf("class[%d] = %d/%q, want %d/%q",
				i, snap.Classes[i].ID, snap.Classes[i].Name, want.id, want.name)
		}
	}
	if cs, ok := snap.Class(a); !ok || cs.Name != "voice" {
		t.Fatalf("snapshot class %d = %q (ok %v), want voice", a, cs.Name, ok)
	}
	var buf strings.Builder
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"voice", "bulk"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("prometheus output missing class %q:\n%s", name, buf.String())
		}
	}

	plain, _ := hfsc.NewMultiQueue(hfsc.MultiConfig{Config: hfsc.Config{LinkRate: hfsc.Mbps}}, func(p *hfsc.Packet) {})
	if plain.Snapshot() != nil {
		t.Fatal("snapshot without Metrics should be nil")
	}
	if err := plain.WriteMetrics(&buf); !errors.Is(err, hfsc.ErrMetricsDisabled) {
		t.Fatalf("WriteMetrics without metrics: %v", err)
	}
}

// TestMultiQueueAdmissibleAndDelayBound checks the composed (per-shard
// floor) admissibility test and the shard-slice delay bound.
func TestMultiQueueAdmissibleAndDelayBound(t *testing.T) {
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: 1000 * hfsc.Bps},
		Shards: 2,
	}, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddClass("", "rt1", hfsc.ClassConfig{RealTime: hfsc.Linear(400)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddClass("", "rt2", hfsc.ClassConfig{RealTime: hfsc.Linear(400)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Admissible(); err != nil {
		t.Fatalf("800 of 1000 B/s guaranteed reported inadmissible: %v", err)
	}
	if _, err := m.AddClass("", "rt3", hfsc.ClassConfig{RealTime: hfsc.Linear(400)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Admissible(); !errors.Is(err, hfsc.ErrInadmissible) {
		t.Fatalf("1200 of 1000 B/s guaranteed: %v", err)
	}

	if _, err := m.DelayBound("ghost", 100, 100); !errors.Is(err, hfsc.ErrUnknownClass) {
		t.Fatalf("unknown class: %v", err)
	}
	// rt1 (400 B/s curve) on a shard whose floor is at least 400 B/s:
	// 100 B through the curve takes 250 ms; the lmax slack at the floor
	// can only shorten vs the curve's own rate if the floor is higher.
	d, err := m.DelayBound("rt1", 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d < 250*time.Millisecond || d > time.Second {
		t.Fatalf("delay bound %v outside (250ms, 1s]", d)
	}
}

// TestMultiQueueStatsBeforeStart is the stats-lifecycle fix under test:
// Stats and Snapshot on a never-started queue (paced or multi) return
// zero values without building the intake rings, and keep working after
// Stop.
func TestMultiQueueStatsBeforeStart(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: hfsc.Mbps, Metrics: true})
	if _, err := s.AddClass(nil, "c", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
		t.Fatal(err)
	}
	q, err := hfsc.NewPacedQueue(s, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.SentPackets != 0 || st.IntakeBacklog != 0 || st.ShardHighWater != nil {
		t.Fatalf("never-started stats not zero: %+v", st)
	}
	if snap := q.Snapshot(); snap == nil || snap.DropsIntakeFull != 0 {
		t.Fatalf("never-started snapshot: %+v", snap)
	}
	if allocs := testing.AllocsPerRun(100, func() { q.Stats() }); allocs != 0 {
		t.Fatalf("Stats on a never-started queue allocates %.1f/op (rings built?)", allocs)
	}

	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: hfsc.Mbps, Metrics: true},
		Shards: 4,
	}, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := m.AddClass("", "c", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	st := m.Stats()
	if st.SentPackets != 0 || st.IntakeBacklog != 0 || len(st.ShardHighWater) != 0 {
		t.Fatalf("never-started multi-shard stats not zero: %+v", st)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("Stats has %d shard entries, want 4", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.ShardHighWater != nil {
			t.Fatalf("shard %d built its rings for a stats read", i)
		}
	}
	if snap := m.Snapshot(); snap == nil || len(snap.Classes) != 0 {
		t.Fatalf("never-started multi-shard snapshot: %+v", snap)
	}

	// After Stop the same calls still answer (and see the traffic).
	m.Start()
	m.Submit(&hfsc.Packet{Len: 100, Class: cl})
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().SentPackets != 1 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the packet")
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	if st := m.Stats(); st.SentPackets != 1 || st.SentBytes != 100 {
		t.Fatalf("post-stop stats: %+v", st)
	}
	if snap := m.Snapshot(); snap == nil {
		t.Fatal("post-stop snapshot nil")
	}
}

// TestMultiQueueRebalanceFloors drives one shard hard and checks the
// public invariant after live rebalancing: every shard's pacing rate
// stays at or above its guaranteed floor while the slices keep summing
// to the line rate.
func TestMultiQueueRebalanceFloors(t *testing.T) {
	const line = 1_000_000 * hfsc.Bps
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: line},
		Shards: 2,
	}, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	busy, _ := m.AddClass("", "busy", hfsc.ClassConfig{
		RealTime:  hfsc.Linear(100_000),
		LinkShare: hfsc.Linear(100_000),
	})
	idle, _ := m.AddClass("", "idle", hfsc.ClassConfig{
		RealTime:  hfsc.Linear(200_000),
		LinkShare: hfsc.Linear(200_000),
	})
	busyShard, idleShard := hfsc.ShardOf(m, busy), hfsc.ShardOf(m, idle)
	if busyShard == idleShard {
		t.Fatal("test needs the classes on different shards")
	}
	hfsc.SetRebalanceEvery(m, time.Hour) // the test drives every pass
	m.Start()
	defer m.Stop()

	for round := 0; round < 30; round++ {
		for i := 0; i < 20; i++ {
			p := hfsc.GetPacket()
			p.Len = 1000
			p.Class = busy
			m.Submit(p)
		}
		hfsc.Rebalance(m)
		st := m.Stats()
		var sum uint64
		for i, sh := range st.Shards {
			if sh.Rate < sh.GuaranteedRate {
				t.Fatalf("round %d: shard %d paces at %d below floor %d", round, i, sh.Rate, sh.GuaranteedRate)
			}
			sum += sh.Rate
		}
		if sum != line {
			t.Fatalf("round %d: rates sum to %d, want %d", round, sum, line)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The idle shard's floor must be intact: 200 kB/s guaranteed.
	st := m.Stats()
	if st.Shards[idleShard].GuaranteedRate != 200_000 {
		t.Fatalf("idle shard floor = %d, want 200000", st.Shards[idleShard].GuaranteedRate)
	}
	if st.Shards[busyShard].Rate < st.Shards[idleShard].GuaranteedRate {
		// Not an invariant — just a sanity log target; the hard invariant
		// was asserted per round above.
		t.Logf("busy shard rate %d", st.Shards[busyShard].Rate)
	}
}
