package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/netsched/hfsc"
)

// shaper-64b: the paced datapath at the smallest packet size, where
// per-packet cost dominates. One producer keeps a fixed window of pooled
// 64-byte packets in flight through PacedQueue.SubmitN to 64 equal
// link-sharing leaves (8×8) and polls the telemetry the way a /metrics
// scraper would; the pacing goroutine's Transmit callback checks and
// releases each packet and rings the producer's doorbell at a low-water
// mark. The link rate is far above what the CPU can pace, so the pacer
// never waits for the link: the figures are the cost of intake, drain,
// pacing loop, telemetry (metrics, flight recorder, auditor, spans) and
// the packet pool.
const (
	shaperRate    = 10_000_000_000 // bytes/s
	shaperFan     = 8
	shaperLeaves  = shaperFan * shaperFan
	shaperPkt     = 64
	shaperItems   = 1 << 20 // packets per timed round
	shaperWarm    = 1 << 16
	shaperWindow  = 1024 // packets in flight
	shaperLow     = shaperWindow / 2
	shaperBatch   = 64
	scrapeEvery   = 1 << 16         // packets between telemetry polls
	latEvery      = 8               // one packet in latEvery is timed end to end
	shaperStall   = 5 * time.Second // a window that does not drain in this long has lost packets
	shaperFairWin = 64 * shaperLeaves
)

// shaperRun is one queue with its producer and transmit-side state.
type shaperRun struct {
	q     *hfsc.PacedQueue
	link  *shaperLink
	ids   []int // leaf → class id
	rng   *rand.Rand
	epoch time.Time
	seq   uint64
	batch []*hfsc.Packet
	// SubmitN call time of each packet, in a ring per leaf indexed by the
	// leaf's submit count. Per-class FIFO makes a leaf's n-th transmit its
	// n-th submit, and a leaf cannot have a whole window in flight behind
	// an untransmitted packet, so a slot is rewritten only after the
	// transmit that reads it.
	stamps    [shaperLeaves][shaperWindow]int64
	submitted [shaperLeaves]uint32 // producer side

	inflight atomic.Int64
	waiting  atomic.Bool
	bell     chan struct{}

	attempted, refused int64
	sinceScrape        int
	scrapeErr          error
	stall              *time.Timer
	stalled            int64       // packets still in flight when the window stopped draining
	clock              *chunkClock // times the producer in chunks of submitted packets

	// Transmit side: written only by the pacing goroutine, read by the
	// producer after the window has drained (ordered by inflight).
	delivered int64
	dropped   int64 // accepted by SubmitN, refused at drain time (OnReject)
	lastSeq   [shaperLeaves]uint64
	sent      [shaperLeaves]uint32
	lat       []float64
	winCount  [shaperLeaves]float64
	winTotal  int
	jainSum   float64
	jainN     int
	txLane    *lane
	failures  []string
}

func newShaperRun(seed uint64) (*shaperRun, error) {
	s := hfsc.New(hfsc.Config{LinkRate: shaperRate, Metrics: true, Flight: true, Audit: true, Spans: 64})
	r := &shaperRun{
		ids:   make([]int, shaperLeaves),
		rng:   rand.New(rand.NewPCG(seed, 0x736861706572)),
		epoch: time.Now(),
		batch: make([]*hfsc.Packet, 0, shaperBatch),
		bell:  make(chan struct{}, 1),
		stall: time.NewTimer(shaperStall),
		lat:   make([]float64, 0, shaperItems/latEvery+shaperWarm),
	}
	for g := 0; g < shaperFan; g++ {
		gc, err := s.AddClass(nil, fmt.Sprintf("g%d", g), hfsc.ClassConfig{LinkShare: hfsc.Linear(shaperRate / shaperFan)})
		if err != nil {
			return nil, err
		}
		for k := 0; k < shaperFan; k++ {
			lc, err := s.AddClass(gc, fmt.Sprintf("g%d.%d", g, k), hfsc.ClassConfig{LinkShare: hfsc.Linear(shaperRate / shaperLeaves)})
			if err != nil {
				return nil, err
			}
			r.ids[g*shaperFan+k] = lc.ID()
		}
	}
	q, err := hfsc.NewPacedQueue(s, r.transmit)
	if err != nil {
		return nil, err
	}
	// Deep enough that the whole window fits in one shard: the closed
	// loop never overflows intake, so every packet is delivered.
	q.IntakeDepth = 2 * shaperWindow
	q.OnReject = r.reject
	r.q = q
	r.link = &shaperLink{q: q, flight: make([]hfsc.FlightRecord, 0, 4096)}
	q.Start()
	return r, nil
}

func (r *shaperRun) now() int64 { return int64(time.Since(r.epoch)) }

// transmit is the PacedQueue's Transmit callback, on the pacing goroutine.
func (r *shaperRun) transmit(p *hfsc.Packet) {
	sp := r.txLane.begin(spTransmit, p.Seq)
	leaf := p.Flow
	if p.Seq <= r.lastSeq[leaf] && len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("leaf %d sent packet %d after %d: per-class FIFO broken", leaf, p.Seq, r.lastSeq[leaf]))
	}
	r.lastSeq[leaf] = p.Seq
	if p.Seq%latEvery == 0 {
		r.lat = append(r.lat, float64(r.now()-r.stamps[leaf][r.sent[leaf]%shaperWindow])/1e3)
	}
	r.sent[leaf]++
	r.winCount[leaf]++
	if r.winTotal++; r.winTotal == shaperFairWin {
		r.jainSum += jain(r.winCount[:])
		r.jainN++
		r.winCount, r.winTotal = [shaperLeaves]float64{}, 0
	}
	r.delivered++
	p.Release()
	r.txLane.end(sp)
	r.leave()
}

// reject is the PacedQueue's OnReject callback, on the pacing goroutine:
// a packet SubmitN accepted was refused at drain time. No leaf here has a
// queue limit, so this never happens in a correct run.
func (r *shaperRun) reject(p *hfsc.Packet, why hfsc.DropReason) {
	if r.dropped++; len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("leaf %d packet %d refused at drain time: %v", p.Flow, p.Seq, why))
	}
	p.Release()
	r.leave()
}

// leave takes one packet out of the window, ringing the producer's
// doorbell at the low-water mark.
func (r *shaperRun) leave() {
	if n := r.inflight.Add(-1); n <= shaperLow && r.waiting.Load() && r.waiting.CompareAndSwap(true, false) {
		r.bell <- struct{}{}
	}
}

// produce submits n more packets through the closed loop and returns
// once every one of them has been transmitted or refused, or once the
// window has stopped draining (r.stalled).
func (r *shaperRun) produce(n int, tr *lane) {
	r.link.tr = tr
	for left := n; left > 0; {
		for left > 0 && r.inflight.Load() < shaperWindow {
			k := min(shaperBatch, left, shaperWindow-int(r.inflight.Load()))
			r.submit(k)
			r.clock.tick(r.attempted)
			left -= k
			if r.sinceScrape += k; r.sinceScrape >= scrapeEvery {
				r.sinceScrape = 0
				if err := r.link.scrape(); err != nil && r.scrapeErr == nil {
					r.scrapeErr = err
				}
			}
		}
		if left > 0 && !r.wait(tr) {
			r.stalled = r.inflight.Load()
			return
		}
	}
	deadline := time.Now().Add(shaperStall)
	for r.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			r.stalled = r.inflight.Load()
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func (r *shaperRun) submit(k int) {
	r.batch = r.batch[:0]
	at := r.now()
	for i := 0; i < k; i++ {
		leaf := r.rng.IntN(shaperLeaves)
		r.seq++
		p := hfsc.GetPacket()
		p.Len, p.Class, p.Flow, p.Seq = shaperPkt, r.ids[leaf], leaf, r.seq
		r.stamps[leaf][r.submitted[leaf]%shaperWindow] = at
		r.submitted[leaf]++
		r.batch = append(r.batch, p)
	}
	r.inflight.Add(int64(k))
	acc, _ := r.link.submitN(r.batch)
	r.attempted += int64(k)
	if acc < k {
		r.refused += int64(k - acc)
		r.inflight.Add(-int64(k - acc))
		for _, p := range r.batch[acc:] {
			r.submitted[p.Flow]-- // never transmitted: free its stamp slot
			p.Release()
		}
	}
}

// wait parks the producer until the window has drained to shaperLow; it
// reports false if that takes longer than shaperStall.
func (r *shaperRun) wait(tr *lane) bool {
	sp := tr.begin(spWait, 0)
	defer tr.end(sp)
	r.waiting.Store(true)
	if r.inflight.Load() <= shaperLow && r.waiting.CompareAndSwap(true, false) {
		return true
	}
	if !r.stall.Stop() {
		select {
		case <-r.stall.C:
		default:
		}
	}
	r.stall.Reset(shaperStall)
	select {
	case <-r.bell:
		return true
	case <-r.stall.C:
		return false
	}
}

// collect adds the run's counters and failures to res. The queue must
// have stopped: the pacing goroutine writes the transmit-side fields.
func (r *shaperRun) collect(res *result) {
	res.attempted += r.attempted
	res.delivered += r.delivered
	res.refused += r.refused + r.dropped
	res.failures = append(res.failures, r.failures...)
	if r.stalled > 0 {
		res.failf("%d packets accepted by SubmitN were neither transmitted nor refused within %v", r.stalled, shaperStall)
	}
	if r.scrapeErr != nil {
		res.failf("telemetry poll: %v", r.scrapeErr)
	}
}

// shaperRound is one set-up plus one timed closed-loop run.
type shaperRound struct {
	r        *shaperRun
	setup    time.Duration
	ph       *phase
	heap     uint64
	prodLane *lane
	stats    hfsc.PacedStats
	residual int64
	txGap    float64
}

func shaperOnce(seed uint64, items int, traced bool) (*shaperRound, error) {
	t0 := time.Now()
	r, err := newShaperRun(seed)
	if err != nil {
		return nil, err
	}
	defer r.q.Stop()
	r.produce(shaperWarm, nil)
	runtime.GC()
	sr := &shaperRound{r: r, setup: time.Since(t0)}
	// Warm-up packets do not count: reset what the timed phase reports.
	r.lat, r.jainSum, r.jainN = r.lat[:0], 0, 0

	if traced {
		epoch := time.Now()
		sr.prodLane = newLane(epoch, 4*items/shaperBatch)
		r.txLane = newLane(epoch, items+16) // set before the next Submit: ordered by the intake ring
	}
	sr.ph = startPhase()
	r.clock = newChunkClock(chunkItems, r.attempted)
	r.produce(items, sr.prodLane)
	r.clock.flush(r.attempted)
	sr.ph.stop()
	if traced {
		end := int64(time.Since(sr.prodLane.epoch))
		if sr.residual, err = gapNs(sr.prodLane, int64(sr.ph.t0.Sub(sr.prodLane.epoch)), end); err != nil {
			return nil, err
		}
		sr.txGap = txGapNs(r.txLane)
	}
	sr.stats = r.q.Stats()
	sr.heap = liveHeap()
	return sr, nil
}

// txGapNs is the mean time between consecutive Transmit callbacks less
// the callbacks' own time: what the pacing goroutine spends per packet on
// drain, selection, pacing and telemetry.
func txGapNs(l *lane) float64 {
	n := len(l.spans)
	if n < 2 {
		return 0
	}
	var own int64
	for _, s := range l.spans[:n-1] {
		own += s.end - s.start
	}
	return float64(l.spans[n-1].start-l.spans[0].start-own) / float64(n-1)
}

func runShaper(o opts) (*result, error) {
	rounds := o.seconds
	if o.trace {
		rounds = max(2, rounds)
	}
	res := &result{}
	var figs, tfigs roundFigures
	var p50, p99 []float64 // per round: a stall on the shared host moves a few rounds' tails, not the median round
	var jainSum float64
	var jainN int
	var last *shaperRound
	var gcs uint32
	var pause time.Duration
	for i := 0; i < rounds; i++ {
		traced := o.trace && i%2 == 1
		sr, err := shaperOnce(o.seed, shaperItems, traced)
		if err != nil {
			return nil, err
		}
		r := sr.r
		r.collect(res)
		if traced {
			tfigs.addRound(sr.setup.Seconds(), sr.ph, r.clock, shaperItems, sr.heap)
			last = sr
		} else {
			figs.addRound(sr.setup.Seconds(), sr.ph, r.clock, shaperItems, sr.heap)
			lat := sorted(r.lat)
			p50 = append(p50, quantile(lat, 0.5))
			p99 = append(p99, quantile(lat, 0.99))
			jainSum += r.jainSum
			jainN += r.jainN
		}
		gcs += sr.ph.gcs
		pause += sr.ph.gcPause
	}

	vals := map[string]float64{}
	if !o.trace {
		figs.into(vals)
		vals["latency_p50_us"] = median(p50)
		vals["latency_p99_us"] = median(p99)
		vals["rt_met_ratio"] = 1 // no real-time leaves: vacuously met
		vals["delivered_ratio"] = float64(res.delivered) / float64(res.attempted)
		vals["ls_fairness"] = jainSum / float64(jainN)
		vals["link_util"] = 1 // the link is deliberately unreachable: not applicable
		report(res, false, vals)
		return res, nil
	}

	st := summarize([]*lane{last.prodLane})
	items := float64(shaperItems)
	vals["intake.submit_ns"] = float64(st.selfNs[spSubmit]) / items
	vals["intake.full_ratio"] = float64(last.stats.DropsIntakeFull) / float64(last.r.attempted)
	var hw int64
	for _, h := range last.stats.ShardHighWater {
		hw = max(hw, h)
	}
	vals["intake.shard_highwater"] = float64(hw)
	vals["pace.tx_gap_ns"] = last.txGap
	vals["pace.producer_wait_us"] = perCall(st, spWait) / 1e3
	vals["telemetry.write_metrics_ms"] = perCall(st, spWriteMetrics) / 1e6
	vals["telemetry.audit_snapshot_ms"] = perCall(st, spAuditSnap) / 1e6
	vals["telemetry.flight_read_us"] = perCall(st, spFlightRead) / 1e3
	vals["runtime.gc_cycles"] = float64(gcs) / float64(rounds)
	vals["runtime.gc_pause_ms"] = pause.Seconds() * 1e3 / float64(rounds)
	vals["bench.residual_ns"] = float64(last.residual) / items
	vals["bench.trace_overhead_ratio"] = median(tfigs.wall)/median(figs.wall) - 1
	if err := writeSpans(o.spansDir, o.label, []*lane{last.prodLane, last.r.txLane}); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	report(res, true, vals)
	return res, nil
}

// perCall is a span name's mean self time per call, in ns.
func perCall(st spanStats, name uint8) float64 {
	if st.calls[name] == 0 {
		return 0
	}
	return float64(st.selfNs[name]) / float64(st.calls[name])
}
