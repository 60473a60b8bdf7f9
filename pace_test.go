package hfsc_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/intake"
)

// The paced queue must (a) deliver everything, (b) honour the line rate
// within coarse real-time tolerances, and (c) prioritize the real-time
// class. Timing assertions are deliberately loose to stay robust on busy
// CI machines.
func TestPacedQueueEndToEnd(t *testing.T) {
	// 1 MB/s link: 100 x 1000 B take >= ~99 ms on the wire.
	s := hfsc.New(hfsc.Config{LinkRate: 1_000_000 * hfsc.Bps})
	rt, err := hfsc.ForRealTime(200, 2*time.Millisecond, 10_000*hfsc.Bps)
	if err != nil {
		t.Fatal(err)
	}
	voice, _ := s.AddClass(nil, "voice", hfsc.ClassConfig{RealTime: rt, LinkShare: hfsc.Linear(10_000)})
	bulk, _ := s.AddClass(nil, "bulk", hfsc.ClassConfig{LinkShare: hfsc.Linear(990_000)})

	var mu sync.Mutex
	var order []int
	q, err := hfsc.NewPacedQueue(s, func(p *hfsc.Packet) {
		mu.Lock()
		order = append(order, p.Class)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()

	start := time.Now()
	for i := 0; i < 100; i++ {
		if r := q.Submit(&hfsc.Packet{Len: 1000, Class: bulk.ID()}); r != hfsc.DropNone {
			t.Fatalf("submit failed: %v", r)
		}
	}
	// A voice packet submitted mid-burst should jump ahead of most bulk.
	time.Sleep(5 * time.Millisecond)
	q.Submit(&hfsc.Packet{Len: 200, Class: voice.ID()})

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := q.Stats()
		if st.SentPackets == 101 {
			if st.SentBytes != 100*1000+200 {
				t.Fatalf("sent bytes %d, want %d", st.SentBytes, 100*1000+200)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: sent %d of 101", st.SentPackets)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	if elapsed < 90*time.Millisecond {
		t.Fatalf("pacing too fast: 100.2 KB at 1 MB/s in %v", elapsed)
	}

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, c := range order {
		if c == voice.ID() {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("voice packet lost")
	}
	// It arrived ~5 ms in (~5 bulk packets served); it must not have
	// waited behind the whole bulk queue.
	if pos > 40 {
		t.Fatalf("voice packet served at position %d of 101", pos)
	}
}

func TestPacedQueueStopIsIdempotentAndRejects(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: hfsc.Mbps})
	cl, _ := s.AddClass(nil, "c", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	q, err := hfsc.NewPacedQueue(s, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	q.Start() // no-op
	q.Stop()
	q.Stop() // no-op
	if r := q.Submit(&hfsc.Packet{Len: 1, Class: cl.ID()}); r != hfsc.DropStopped {
		t.Fatalf("submit after stop returned %v, want DropStopped", r)
	}
	if n, r := q.SubmitN([]*hfsc.Packet{{Len: 1, Class: cl.ID()}}); n != 0 || r != hfsc.DropStopped {
		t.Fatalf("SubmitN after stop returned %d/%v, want 0/DropStopped", n, r)
	}
	if st := q.Stats(); st.DropsStopped != 2 || st.Drops() != 2 {
		t.Fatalf("stats drops = %+v, want 2 stopped", st)
	}
}

func TestPacedQueueValidation(t *testing.T) {
	if _, err := hfsc.NewPacedQueue(nil, func(p *hfsc.Packet) {}); err == nil {
		t.Error("nil scheduler accepted")
	}
	s := hfsc.New(hfsc.Config{}) // no link rate
	if _, err := hfsc.NewPacedQueue(s, func(p *hfsc.Packet) {}); err == nil {
		t.Error("missing LinkRate accepted")
	}
	s2 := hfsc.New(hfsc.Config{LinkRate: hfsc.Mbps})
	if _, err := hfsc.NewPacedQueue(s2, nil); err == nil {
		t.Error("nil transmit accepted")
	}
	if _, err := hfsc.NewMultiQueue(hfsc.MultiConfig{Shards: 2}, func(p *hfsc.Packet) {}); err == nil {
		t.Error("multi-shard queue without LinkRate accepted")
	}
	if _, err := hfsc.NewMultiQueue(hfsc.MultiConfig{Config: hfsc.Config{LinkRate: hfsc.Mbps}, Shards: 2}, nil); err == nil {
		t.Error("multi-shard queue with nil transmit accepted")
	}
}

// TestPacedQueueIntakeOverflow fills a deliberately tiny intake ring with
// no consumer running and checks the bounded-queue overflow policy:
// DropIntakeFull from Submit, counted in PacedStats, and — once metrics
// are synced — visible in the aggregator snapshot and Prometheus output.
func TestPacedQueueIntakeOverflow(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: hfsc.Mbps, Metrics: true})
	cl, _ := s.AddClass(nil, "c", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	q, err := hfsc.NewPacedQueue(s, func(p *hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	q.IntakeDepth = 8

	for i := 0; i < 8; i++ {
		if r := q.Submit(&hfsc.Packet{Len: 1, Class: cl.ID()}); r != hfsc.DropNone {
			t.Fatalf("submit %d: %v", i, r)
		}
	}
	for i := 0; i < 3; i++ {
		if r := q.Submit(&hfsc.Packet{Len: 1, Class: cl.ID()}); r != hfsc.DropIntakeFull {
			t.Fatalf("overflow submit returned %v, want DropIntakeFull", r)
		}
	}
	st := q.Stats()
	if st.DropsIntakeFull != 3 {
		t.Fatalf("DropsIntakeFull = %d, want 3", st.DropsIntakeFull)
	}
	if st.IntakeBacklog != 8 {
		t.Fatalf("IntakeBacklog = %d, want 8", st.IntakeBacklog)
	}
	if len(st.ShardHighWater) != intake.DefaultShards() {
		t.Fatalf("ShardHighWater has %d rings, want %d", len(st.ShardHighWater), intake.DefaultShards())
	}

	// The bugfix under test: intake drops must reach the metrics pipeline.
	snap := q.Snapshot()
	if snap.DropsIntakeFull != 3 {
		t.Fatalf("snapshot DropsIntakeFull = %d, want 3", snap.DropsIntakeFull)
	}
	var buf strings.Builder
	if err := q.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `hfsc_enqueue_rejects_total{reason="intake_full"} 3`) {
		t.Fatalf("prometheus output missing intake_full counter:\n%s", buf.String())
	}

	// Start/Stop drains nothing into /metrics twice (totals are monotonic).
	q.Start()
	q.Stop()
	if r := q.Submit(&hfsc.Packet{Len: 1, Class: cl.ID()}); r != hfsc.DropStopped {
		t.Fatalf("post-stop submit: %v", r)
	}
	if snap := q.Snapshot(); snap.DropsIntakeFull != 3 || snap.DropsStopped != 1 {
		t.Fatalf("snapshot drops = %d/%d, want 3/1", snap.DropsIntakeFull, snap.DropsStopped)
	}
}

// newTestQueue builds a queue of cfg.Shards shards: the one-shard case
// through NewPacedQueue around a fresh Scheduler, the others through
// NewMultiQueue.
func newTestQueue(t testing.TB, cfg hfsc.MultiConfig, transmit func(*hfsc.Packet)) *hfsc.PacedQueue {
	t.Helper()
	var q *hfsc.PacedQueue
	var err error
	if cfg.Shards == 1 {
		q, err = hfsc.NewPacedQueue(hfsc.New(cfg.Config), transmit)
	} else {
		q, err = hfsc.NewMultiQueue(cfg, transmit)
	}
	if err != nil {
		t.Fatal(err)
	}
	if q.NumShards() != cfg.Shards {
		t.Fatalf("NumShards = %d, want %d", q.NumShards(), cfg.Shards)
	}
	return q
}

// TestPacedQueueConservation is the multi-producer stress gate (run under
// -race by make check), on one shard and on four with the rebalancer
// ticking hot: N concurrent producers — half submitting one packet at a
// time, half batch-submitting pooled packets — assert conservation (every
// accepted packet is transmitted exactly once, every refusal is accounted
// by reason) and FIFO order within each producer's class.
func TestPacedQueueConservation(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
		batch     = 16
		line      = 400_000_000 * hfsc.Bps // pacing is not the bottleneck
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			lastSeq := make(map[int]int64, producers)
			got := make(map[int]uint64, producers)
			reordered := false
			q := newTestQueue(t, hfsc.MultiConfig{
				Config: hfsc.Config{LinkRate: line},
				Shards: shards,
			}, func(p *hfsc.Packet) {
				mu.Lock()
				last, ok := lastSeq[p.Class]
				if ok && int64(p.Seq) <= last {
					reordered = true
				}
				lastSeq[p.Class] = int64(p.Seq)
				got[p.Class]++
				mu.Unlock()
				p.Release()
			})
			hfsc.SetRebalanceEvery(q, 2*time.Millisecond)
			q.IntakeDepth = 64 // small rings so overflow drops actually happen
			classes := make([]int, producers)
			shardUsed := map[int]bool{}
			for i := range classes {
				id, err := q.AddClass("", fmt.Sprintf("p%d", i), hfsc.ClassConfig{
					LinkShare: hfsc.Linear(line / producers),
				})
				if err != nil {
					t.Fatal(err)
				}
				classes[i] = id
				shardUsed[hfsc.ShardOf(q, id)] = true
			}
			// Greedy placement of 8 equal top-level classes must use every
			// shard.
			if len(shardUsed) != shards {
				t.Fatalf("8 classes landed on %d of %d shards", len(shardUsed), shards)
			}
			q.Start()
			defer q.Stop()

			var accepted, dropped [producers]uint64
			var wg sync.WaitGroup
			for pr := 0; pr < producers; pr++ {
				wg.Add(1)
				go func(pr int) {
					defer wg.Done()
					size := batch
					if pr%2 == 1 {
						size = 1 // odd producers submit one packet at a time
					}
					ps := make([]*hfsc.Packet, 0, size)
					seq := uint64(0)
					for seq < perProd {
						ps = ps[:0]
						for len(ps) < size && seq < perProd {
							p := hfsc.GetPacket()
							p.Len = 100
							p.Class = classes[pr]
							p.Seq = seq
							seq++
							ps = append(ps, p)
						}
						// SubmitN prefix contract: ps[:n] are gone; on a
						// refusal, drop ps[n] (releasing it back to the pool)
						// and retry the rest of the batch.
						rest := ps
						for len(rest) > 0 {
							var n int
							var r hfsc.DropReason
							if size == 1 {
								if r = q.Submit(rest[0]); r == hfsc.DropNone {
									n = 1
								}
							} else {
								n, r = q.SubmitN(rest)
							}
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
				st := q.Stats()
				if st.SentPackets == totalAccepted {
					break
				}
				if st.SentPackets > totalAccepted {
					t.Fatalf("sent %d > accepted %d (duplication)", st.SentPackets, totalAccepted)
				}
				if time.Now().After(deadline) {
					t.Fatalf("timed out: sent %d of %d accepted (intake backlog %d)",
						st.SentPackets, totalAccepted, st.IntakeBacklog)
				}
				time.Sleep(time.Millisecond)
			}
			q.Stop()

			// Quiescent conservation: accepted == transmitted + dropped +
			// backlog, with backlog zero on both levels once everything
			// drained.
			st := q.Stats()
			if st.IntakeBacklog != 0 {
				t.Fatalf("intake backlog %d after drain", st.IntakeBacklog)
			}
			q.Inspect(func(s *hfsc.Scheduler) {
				if s.Backlog() != 0 {
					t.Fatalf("scheduler backlog %d after drain", s.Backlog())
				}
			})
			if st.DropsIntakeFull != sum(dropped[:]) {
				t.Fatalf("stats drops %d, producers saw %d", st.DropsIntakeFull, sum(dropped[:]))
			}
			if st.Rate != line || st.Rate < st.GuaranteedRate {
				t.Fatalf("queue paces at %d (guaranteed %d), want the line rate %d", st.Rate, st.GuaranteedRate, line)
			}
			if shards == 1 && st.Shards != nil {
				t.Fatalf("one-shard Stats has a %d-entry breakdown, want none", len(st.Shards))
			}
			if shards > 1 {
				if len(st.Shards) != shards {
					t.Fatalf("Stats has %d shards, want %d", len(st.Shards), shards)
				}
				var perShard uint64
				for i, sh := range st.Shards {
					perShard += sh.SentPackets
					if sh.Rate < sh.GuaranteedRate {
						t.Fatalf("shard %d paces at %d below its guaranteed %d", i, sh.Rate, sh.GuaranteedRate)
					}
				}
				if perShard != st.SentPackets {
					t.Fatalf("per-shard sent %d != merged %d", perShard, st.SentPackets)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if reordered {
				t.Fatal("intra-producer reordering observed")
			}
			for pr := 0; pr < producers; pr++ {
				if got[classes[pr]] != accepted[pr] {
					t.Fatalf("producer %d: transmitted %d, accepted %d", pr, got[classes[pr]], accepted[pr])
				}
			}

			// Post-Stop refusals.
			if r := q.Submit(&hfsc.Packet{Len: 1, Class: classes[0]}); r != hfsc.DropStopped {
				t.Fatalf("submit after stop returned %v, want DropStopped", r)
			}
			if n, r := q.SubmitN([]*hfsc.Packet{{Len: 1, Class: classes[0]}}); n != 0 || r != hfsc.DropStopped {
				t.Fatalf("SubmitN after stop returned %d/%v, want 0/DropStopped", n, r)
			}
		})
	}
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// BenchmarkIntakeSubmit measures the full Submit path (stop check, shard
// hash, ring push) plus the pacing goroutine's drain, contended across
// GOMAXPROCS submitters.
func BenchmarkIntakeSubmit(b *testing.B) {
	s := hfsc.New(hfsc.Config{LinkRate: hfsc.Gbps})
	cl, _ := s.AddClass(nil, "c", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Gbps)})
	q, err := hfsc.NewPacedQueue(s, func(p *hfsc.Packet) {})
	if err != nil {
		b.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		id := cl.ID()
		for pb.Next() {
			q.Submit(&hfsc.Packet{Len: 1000, Class: id})
		}
	})
}

// TestPacedQueueInspectWakeup guards the idle park against a lost
// wake-up: an Inspect whose doorbell check runs just before the pacing
// goroutine sets its idle flag rings nothing, so the goroutine must see
// the pending inspection itself before parking — otherwise the Inspect
// waits out the park timer (up to an hour on an idle queue). Back-to-back
// Inspects on an idle queue hit that window within a few thousand calls.
// TestPacedQueueFirstPassPaced: cost-denominated work items leave one
// link time apart from the first pass on, like every later item. Here
// each item is 40 ms of service on a 32-seat link (4·10⁷ cost units,
// 1.25 ms of link time), the shape of an hfscmw request, and 16 of them
// wait for a pass that has measured no item cost yet: queued before
// Start, or submitted as one batch to a parked queue. That pass must not
// size a deficit-recovery burst from a guess: a guess of one MTU would
// turn microseconds of schedule deficit into all 16 items at once.
func TestPacedQueueFirstPassPaced(t *testing.T) {
	const (
		seats = 32
		items = 16
		cost  = uint64(40 * time.Millisecond)
	)
	run := func(t *testing.T, beforeStart bool) {
		s := hfsc.New(hfsc.Config{LinkRate: seats * uint64(time.Second)})
		cl, err := s.AddClass(nil, "work", hfsc.ClassConfig{LinkShare: hfsc.Linear(uint64(time.Second))})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var at []time.Time
		done := make(chan struct{})
		q, err := hfsc.NewPacedQueue(s, func(*hfsc.Packet) {
			mu.Lock()
			defer mu.Unlock()
			if at = append(at, time.Now()); len(at) == items {
				close(done)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]*hfsc.Packet, items)
		for i := range batch {
			batch[i] = &hfsc.Packet{Cost: cost, Class: cl.ID()}
		}
		if !beforeStart {
			q.Start()
			for deadline := time.Now().Add(5 * time.Second); !hfsc.Parked(q); {
				if time.Now().After(deadline) {
					t.Fatal("pacing goroutine never parked")
				}
				runtime.Gosched()
			}
		}
		if n, r := q.SubmitN(batch); n != items {
			t.Fatalf("submitted %d of %d: %v", n, items, r)
		}
		if beforeStart {
			q.Start()
		}
		defer q.Stop()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for the queued items")
		}
		mu.Lock()
		defer mu.Unlock()
		// Paced, the 16th item leaves 15 link times (18.75 ms) after the first.
		if spread := at[items-1].Sub(at[0]); spread < 15*time.Millisecond {
			t.Fatalf("%d queued items went out within %v of each other, want >= 15ms (paced: 18.75ms)", items, spread)
		}
	}
	t.Run("queued-before-start", func(t *testing.T) { run(t, true) })
	t.Run("batch-to-parked-queue", func(t *testing.T) { run(t, false) })
}

func TestPacedQueueInspectWakeup(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			q := newTestQueue(t, hfsc.MultiConfig{Config: hfsc.Config{LinkRate: hfsc.Mbps}, Shards: shards}, func(*hfsc.Packet) {})
			if _, err := q.AddClass("", "c", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
				t.Fatal(err)
			}
			q.Start()
			defer q.Stop()
			calls := 20000 / shards // each call inspects every shard
			if testing.Short() {
				calls /= 4
			}
			watchdog := time.NewTimer(time.Hour)
			defer watchdog.Stop()
			done := make(chan struct{})
			for i := 0; i < calls; i++ {
				go func() {
					q.Inspect(func(*hfsc.Scheduler) {})
					done <- struct{}{}
				}()
				watchdog.Reset(2 * time.Second)
				select {
				case <-done:
				case <-watchdog.C:
					t.Fatalf("Inspect %d of %d did not return within 2s: lost wake-up", i+1, calls)
				}
				if !watchdog.Stop() {
					<-watchdog.C
				}
			}
		})
	}
}

// TestPacedQueueCorrectFromTransmitDuringStop: a Transmit callback that
// calls Correct while Stop is under way (hfscmw refunds an abandoned
// admission this way when the Limiter closes) must not leave the pacing
// goroutine waiting for its own exit; the correction is applied by the
// loop's exit flush instead.
func TestPacedQueueCorrectFromTransmitDuringStop(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var q *hfsc.PacedQueue
			var id int
			entered := make(chan struct{})
			var once sync.Once
			q = newTestQueue(t, hfsc.MultiConfig{Config: hfsc.Config{LinkRate: hfsc.Mbps}, Shards: shards}, func(p *hfsc.Packet) {
				once.Do(func() {
					close(entered)
					// Hold the pacing goroutine inside Transmit until Stop
					// has begun (submits are then refused), then refund.
					for q.Submit(&hfsc.Packet{Len: 100, Class: id}) != hfsc.DropStopped {
						time.Sleep(time.Millisecond)
					}
					q.Correct(id, 1000, 0, hfsc.ByLinkShare)
				})
			})
			var err error
			if id, err = q.AddClass("", "c", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}); err != nil {
				t.Fatal(err)
			}
			q.Start()
			if r := q.Submit(&hfsc.Packet{Len: 1000, Class: id}); r != hfsc.DropNone {
				t.Fatalf("submit: %v", r)
			}
			<-entered
			stopped := make(chan struct{})
			go func() {
				q.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("Stop deadlocked: Correct from Transmit waited for the pacing goroutine")
			}
			var got int64 = -1
			for _, sh := range q.DumpTree().Shards {
				for _, c := range sh.Classes {
					if c.Name == "c" {
						got = c.TotalBytes
					}
				}
			}
			if got != 0 {
				t.Fatalf("refund not applied by the exit flush: class total %d bytes, want 0", got)
			}
		})
	}
}

// TestSpanSamplingStampsEveryNth pins which packets carry a span stamp:
// with one producer, the n-th packet the queue attempts to push (Submit
// or within a SubmitN batch, refused at a full ring or not) is stamped
// exactly when n is a multiple of Config.Spans. Packets a batch leaves
// unattempted after a refusal, and packets refused before intake
// (unknown class, stopped queue), take no number. The numbering runs
// across the whole queue, so it is the same at one shard and at four.
func TestSpanSamplingStampsEveryNth(t *testing.T) {
	const every = 4
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			q, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
				Config: hfsc.Config{LinkRate: 10 * hfsc.Mbps, Metrics: true, Spans: every},
				Shards: shards,
			}, func(*hfsc.Packet) {})
			if err != nil {
				t.Fatal(err)
			}
			q.IntakeDepth = 64 // never started: the rings fill, so pushes get refused
			var ids []int
			for i := 0; i < 8; i++ {
				id, err := q.AddClass("", fmt.Sprintf("c%d", i), hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			n := uint64(0) // the model's count of numbered packets
			check := func(p *hfsc.Packet, numbered bool) {
				t.Helper()
				if numbered {
					n++
				}
				if want := numbered && n%every == 0; (p.SubmitAt != 0) != want {
					t.Fatalf("packet %d (number %d, numbered %v): stamped %v, want %v", p.Seq, n, numbered, p.SubmitAt != 0, want)
				}
			}
			seq := uint64(0)
			newPkt := func() *hfsc.Packet {
				seq++
				p := &hfsc.Packet{Len: 100, Class: ids[rng.Intn(len(ids))], Seq: seq}
				if rng.Intn(16) == 0 {
					p.Class = -1 // refused by routing: takes no number
				}
				return p
			}
			var full, unknown int
			for round := 0; round < 200; round++ {
				if rng.Intn(4) == 0 {
					p := newPkt()
					r := q.Submit(p)
					check(p, r == hfsc.DropNone || r == hfsc.DropIntakeFull)
					continue
				}
				ps := make([]*hfsc.Packet, 1+rng.Intn(20))
				for i := range ps {
					ps[i] = newPkt()
				}
				acc, r := q.SubmitN(ps)
				for _, p := range ps[:acc] {
					check(p, true)
				}
				switch r {
				case hfsc.DropIntakeFull:
					full++
					check(ps[acc], true)
				case hfsc.DropUnknownClass:
					unknown++
					check(ps[acc], false)
				}
				if acc < len(ps) {
					for _, p := range ps[acc+1:] {
						check(p, false)
					}
				}
			}
			if full == 0 || unknown == 0 || n < 100 {
				t.Fatalf("weak run: %d intake-full and %d unknown-class refusals over %d numbered packets", full, unknown, n)
			}
		})
	}
}
