package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"github.com/netsched/hfsc"
)

// replay-4k: the paper's algorithm at scale. One goroutine plays a
// 1 Gbit/s link for an hfsc.Scheduler holding 4096 leaves (16×16×16) on a
// virtual clock: it offers each arrival at its timestamp, dequeues one
// packet whenever the link is free and advances the clock by that
// packet's transmission time. Every scheduling decision — and so every
// delay, deadline and fairness figure — is a pure function of the seed.
const (
	replayRate   = 125_000_000 // link rate, bytes/s
	replayFan    = 16
	replayLeaves = replayFan * replayFan * replayFan
	replayItems  = 1 << 20 // arrivals per round

	replayLoad  = 0.85                  // mean offered load, share of the link
	surgePeriod = 10 * time.Millisecond // one surge per period ...
	surgeLen    = 2 * time.Millisecond  // ... this long ...
	surgeFactor = 1.3                   // ... at this multiple of the mean
	trainPeak   = 8_000_000             // bytes/s inside a link-sharing burst
	trainLen    = 12                    // packets per burst
	fairEpoch   = 1 * time.Millisecond  // window of the fairness index
	zipfS       = 1.1                   // subgroup popularity: Zipf exponent ...
	zipfV       = 16                    // ... and offset
	hotStride   = 97                    // popularity rank r is subgroup r·97 mod 256
	rtDMax      = 10 * time.Millisecond // real-time delay target
	rtRate      = 40_000                // bytes/s sustained per real-time leaf
	lmax        = 1500                  // largest packet, bytes
	meanPktSize = 0.35*64 + 0.15*576 + 0.35*1500 + 0.15*(64+1500)/2.0
)

// arrival is one trace entry: when the packet's last bit arrives, its
// leaf (0..4095) and its length.
type arrival struct {
	at   int64
	leaf int32
	size int32
}

// pktSize draws a packet length: the 64/576/1500 B peaks of an Internet
// mix plus a uniform 64–1500 B share.
func pktSize(rng *rand.Rand) int32 {
	switch r := rng.IntN(100); {
	case r < 35:
		return 64
	case r < 50:
		return 576
	case r < 85:
		return lmax
	default:
		return 64 + rng.Int32N(lmax-64+1)
	}
}

// leaf roles: one leaf in 16 carries a concave real-time curve and a
// conforming token-bucket source; the last leaf of the first subgroup of
// each top-level group is capped by an upper-limit curve.
func isRT(leaf int) bool { return leaf%replayFan == 0 }
func isUL(leaf int) bool { return leaf%replayFan == replayFan-1 && (leaf/replayFan)%replayFan == 0 }

// genReplayTrace builds n arrivals from the seed: conforming token-bucket
// sources on the real-time leaves, and bursts (on-periods at trainPeak)
// on random link-sharing leaves whose start rate surges above the link
// rate for surgeLen of every surgePeriod, so backlogs build and drain.
func genReplayTrace(seed uint64, n int) ([]arrival, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7265706c6179))
	horizon := int64(float64(n) * meanPktSize / (replayLoad * replayRate) * 1e9 * 1.15)
	tr := make([]arrival, 0, n+n/4)

	// Real-time sources: a token bucket of depth lmax filling at rtRate,
	// idling an exponential gap between packets so each averages about
	// 85% of rtRate. Every packet waits for its tokens (plus one byte of
	// rounding margin), so the source conforms to the leaf's curve.
	var rtLoad float64
	for leaf := 0; leaf < replayLeaves; leaf += replayFan {
		t := rng.Int64N(int64(rtDMax))
		tokens := float64(lmax)
		for t < horizon {
			size := pktSize(rng)
			if need := float64(size) + 1 - tokens; need > 0 {
				dt := int64(math.Ceil(need * 1e9 / rtRate))
				t += dt
				tokens = math.Min(lmax, tokens+float64(dt)*rtRate/1e9)
			}
			tr = append(tr, arrival{t, int32(leaf), size})
			tokens -= float64(size)
			rtLoad += float64(size)
			gap := int64(rng.ExpFloat64() * meanPktSize / (0.9 * rtRate) * 1e9)
			t += gap
			tokens = math.Min(lmax, tokens+float64(gap)*rtRate/1e9)
		}
	}
	rtLoad /= float64(horizon) / 1e9

	// Link-sharing bursts land on a subgroup drawn from a fixed Zipf
	// popularity ranking (hot subgroups spread over the top-level groups),
	// then on a uniform link-sharing leaf within it, so siblings in the
	// hot subgroups compete for their parent's share.
	zipf := rand.NewZipf(rng, zipfS, zipfV, replayFan*replayFan-1)
	// Each surge or quiet segment receives exactly its share of the
	// offered load in bursts starting at uniform times within it, so the
	// realised load — which queueing delay is most sensitive to — does
	// not vary from seed to seed; only where and when bursts land does.
	target := replayLoad*replayRate - rtLoad
	quiet := (1 - surgeFactor*float64(surgeLen)/float64(surgePeriod)) / (1 - float64(surgeLen)/float64(surgePeriod))
	var carry float64 // bytes a segment overshot, taken off the next one's budget
	for seg := int64(0); seg < horizon; {
		factor, length := surgeFactor, int64(surgeLen)
		if seg%int64(surgePeriod) != 0 {
			factor, length = quiet, int64(surgePeriod-surgeLen)
		}
		budget := target*factor*float64(length)/1e9 - carry
		for budget > 0 {
			at := seg + rng.Int64N(length)
			sub := int(zipf.Uint64()*hotStride) % (replayFan * replayFan)
			leaf := int32(sub*replayFan + 1 + rng.IntN(replayFan-1))
			for k := trainLen; k > 0; k-- {
				size := pktSize(rng)
				tr = append(tr, arrival{at, leaf, size})
				at += int64(size) * 1e9 / trainPeak
				budget -= float64(size)
			}
		}
		carry = -budget
		seg += length
	}
	if len(tr) < n {
		return nil, fmt.Errorf("trace generator produced %d arrivals, want %d", len(tr), n)
	}
	// Ties are ordered by leaf and size, so the order is the same
	// whichever sort produced it.
	slices.SortFunc(tr, func(a, b arrival) int {
		if c := cmpInt64(a.at, b.at); c != 0 {
			return c
		}
		if a.leaf != b.leaf {
			return int(a.leaf - b.leaf)
		}
		return int(a.size - b.size)
	})
	return tr[:n:n], nil
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// replayTree is the 4096-leaf hierarchy: every level splits its parent's
// link-sharing rate evenly.
type replayTree struct {
	s     *hfsc.Scheduler
	ids   []int   // leaf index → class id
	bound []int64 // leaf index → Theorem 1/2 delay bound (ns), real-time leaves only
}

func buildReplayTree() (*replayTree, error) {
	s := hfsc.New(hfsc.Config{LinkRate: replayRate})
	rt, err := hfsc.ForRealTime(lmax, rtDMax, rtRate)
	if err != nil {
		return nil, err
	}
	bound, err := s.DelayBound(rt, lmax, lmax)
	if err != nil {
		return nil, err
	}
	t := &replayTree{s: s, ids: make([]int, replayLeaves), bound: make([]int64, replayLeaves)}
	share := uint64(replayRate)
	for g := 0; g < replayFan; g++ {
		gc, err := s.AddClass(nil, fmt.Sprintf("g%d", g), hfsc.ClassConfig{LinkShare: hfsc.Linear(share / replayFan)})
		if err != nil {
			return nil, err
		}
		for sg := 0; sg < replayFan; sg++ {
			sc, err := s.AddClass(gc, fmt.Sprintf("g%d.%d", g, sg), hfsc.ClassConfig{LinkShare: hfsc.Linear(share / (replayFan * replayFan))})
			if err != nil {
				return nil, err
			}
			for k := 0; k < replayFan; k++ {
				leaf := (g*replayFan+sg)*replayFan + k
				cfg := hfsc.ClassConfig{LinkShare: hfsc.Linear(share / replayLeaves)}
				if isRT(leaf) {
					cfg.RealTime = rt
					t.bound[leaf] = int64(bound)
				}
				if isUL(leaf) {
					cfg.UpperLimit = hfsc.Linear(4 * share / replayLeaves)
				}
				lc, err := s.AddClass(sc, fmt.Sprintf("g%d.%d.%d", g, sg, k), cfg)
				if err != nil {
					return nil, err
				}
				t.ids[leaf] = lc.ID()
			}
		}
	}
	if err := s.Admissible(); err != nil {
		return nil, err
	}
	return t, nil
}

// replayState is the link: the virtual clock, the position in the trace,
// and everything measured about the departures.
type replayState struct {
	tree  *replayTree
	trace []arrival
	i     int   // next arrival to offer
	now   int64 // virtual clock: when the link is next free (ns)
	out   []*hfsc.Packet

	offered, delivered, refused int64
	backlog, backlogPeak        int
	deqCalls, emptyDeq          int64
	work                        int64 // bytes delivered
	workByLast, lastAt          int64 // work and clock when the last arrival was offered
	lat                         []float64
	rtTotal, rtMet              int64

	leafQ    []int32  // queued packets per leaf
	lastSeq  []uint64 // per-leaf FIFO check
	epochSvc []int64  // bytes served per leaf in the current fairness window
	steady   []bool   // backlogged at the window start and never emptied since
	busy     []int32  // leaves with a backlog, in no order
	busyAt   []int32  // leaf → index in busy, -1 when idle
	window   []int32  // leaves that were busy when the current window opened
	served   []int32  // leaves with service in the current window
	epochEnd int64
	jainSum  float64 // Σ index × leaves, over sibling sets and windows
	jainW    float64
	xs       []float64

	clock    *chunkClock // times the replay in chunks of departures; nil while warming up
	failures []string
}

func newReplayState(tree *replayTree, trace []arrival) *replayState {
	st := &replayState{
		tree: tree, trace: trace,
		out:      make([]*hfsc.Packet, 0, 1),
		lat:      make([]float64, 0, len(trace)),
		leafQ:    make([]int32, replayLeaves),
		lastSeq:  make([]uint64, replayLeaves),
		epochSvc: make([]int64, replayLeaves),
		steady:   make([]bool, replayLeaves),
		epochEnd: int64(fairEpoch),
		busyAt:   make([]int32, replayLeaves),
	}
	for i := range st.busyAt {
		st.busyAt[i] = -1
	}
	return st
}

func (st *replayState) failf(format string, args ...any) {
	if len(st.failures) < 8 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

// replay plays the link until arrival index until has been reached; when
// until is the end of the trace it also drains the backlog. On a traced
// link every turn is a bench.turn span with the core calls nested in
// it, so the loop's own time is measured, not inferred: what no span
// covers is the loop's control flow and the span bookkeeping between
// turns.
func (st *replayState) replay(link coreLink, until int) {
	n := len(st.trace)
	for st.i < until || (until == n && st.backlog > 0) {
		d := link.tr.begin(spTurn, 0)
		ok := st.turn(link, until)
		link.tr.end(d)
		if !ok {
			return
		}
	}
}

// turn is one pass of the link: jump an idle link to the next arrival,
// offer every packet that has arrived, then send one packet or advance
// the clock to when the scheduler or the next arrival allows one. It
// reports false when the backlog can never be sent.
func (st *replayState) turn(link coreLink, until int) bool {
	if st.backlog == 0 && st.trace[st.i].at > st.now {
		st.advance(st.trace[st.i].at)
	}
	for st.i < until && st.trace[st.i].at <= st.now {
		st.offer(link)
	}
	if st.backlog == 0 {
		return true
	}
	st.out = link.dequeue(st.now, 1, st.out[:0])
	st.deqCalls++
	if len(st.out) == 0 {
		// Backlogged but nothing may be sent (upper limits): sleep
		// until the scheduler or the next arrival says otherwise.
		st.emptyDeq++
		next := int64(math.MaxInt64)
		if t, ok := link.nextReady(st.now); ok {
			next = t
		}
		if st.i < len(st.trace) && st.trace[st.i].at < next {
			next = st.trace[st.i].at
		}
		if next == math.MaxInt64 {
			st.failf("backlog of %d stuck at t=%d with no arrivals left", st.backlog, st.now)
			return false
		}
		st.advance(max(next, st.now+1))
		return true
	}
	st.depart(st.out[0])
	st.clock.tick(st.delivered)
	return true
}

func (st *replayState) offer(link coreLink) {
	a := st.trace[st.i]
	st.i++
	st.offered++
	if st.i == len(st.trace) {
		st.workByLast, st.lastAt = st.work, st.now
	}
	p := &hfsc.Packet{Len: int(a.size), Class: st.tree.ids[a.leaf], Flow: int(a.leaf), Seq: uint64(st.i), Arrival: a.at}
	if r := link.offer(p, a.at); r != hfsc.DropNone {
		st.refused++
		return
	}
	st.backlog++
	st.backlogPeak = max(st.backlogPeak, st.backlog)
	if st.leafQ[a.leaf]++; st.leafQ[a.leaf] == 1 {
		st.busyAt[a.leaf] = int32(len(st.busy))
		st.busy = append(st.busy, a.leaf)
	}
}

func (st *replayState) depart(p *hfsc.Packet) {
	leaf := p.Flow
	p.Depart = st.now + int64(p.Len)*1e9/replayRate
	st.advance(p.Depart)
	d := p.Depart - p.Arrival
	st.lat = append(st.lat, float64(d)/1e3)
	if b := st.tree.bound[leaf]; b > 0 {
		st.rtTotal++
		if d <= b {
			st.rtMet++
		} else {
			st.failf("real-time packet %d on conforming leaf %d waited %d ns, Theorem 1/2 bound %d ns", p.Seq, leaf, d, b)
		}
	}
	if p.Seq <= st.lastSeq[leaf] {
		st.failf("leaf %d sent packet %d after %d: per-class FIFO broken", leaf, p.Seq, st.lastSeq[leaf])
	}
	st.lastSeq[leaf] = p.Seq
	st.backlog--
	if st.leafQ[leaf]--; st.leafQ[leaf] == 0 {
		st.steady[leaf] = false
		i, last := st.busyAt[leaf], st.busy[len(st.busy)-1]
		st.busy[i], st.busyAt[last] = last, i
		st.busy, st.busyAt[leaf] = st.busy[:len(st.busy)-1], -1
	}
	if st.epochSvc[leaf] == 0 {
		st.served = append(st.served, int32(leaf))
	}
	st.epochSvc[leaf] += int64(p.Len)
	st.work += int64(p.Len)
	st.delivered++
}

// advance moves the clock, closing every fairness window it passes.
func (st *replayState) advance(t int64) {
	st.now = t
	for st.now >= st.epochEnd {
		st.closeEpoch()
		st.epochEnd += int64(fairEpoch)
	}
}

// closeEpoch scores one fairness window: within each set of sibling
// leaves, Jain's index over the service of the link-sharing leaves that
// stayed backlogged through the whole window (equal link-sharing rates,
// so service is already service ÷ rate). Real-time and upper-limited
// leaves are left out: their service is not the link-sharing share.
func (st *replayState) closeEpoch() {
	slices.Sort(st.window)
	for i := 0; i < len(st.window); {
		set := st.window[i] / replayFan
		st.xs = st.xs[:0]
		for ; i < len(st.window) && st.window[i]/replayFan == set; i++ {
			if leaf := st.window[i]; st.steady[leaf] && !isRT(int(leaf)) && !isUL(int(leaf)) {
				st.xs = append(st.xs, float64(st.epochSvc[leaf]))
			}
		}
		if len(st.xs) >= 2 {
			st.jainSum += jain(st.xs) * float64(len(st.xs))
			st.jainW += float64(len(st.xs))
		}
	}
	for _, leaf := range st.served {
		st.epochSvc[leaf] = 0
	}
	for _, leaf := range st.window {
		st.steady[leaf] = false
	}
	st.served = st.served[:0]
	st.window = append(st.window[:0], st.busy...)
	for _, leaf := range st.window {
		st.steady[leaf] = true
	}
}

// virtualMetrics are the virtual-clock figures of one round: identical
// on every round of one seed.
type virtualMetrics struct {
	p50, p99, rtMet, delivered, fairness, util float64
}

func (st *replayState) virtual() virtualMetrics {
	lat := sorted(st.lat)
	v := virtualMetrics{
		p50:       quantile(lat, 0.5),
		p99:       quantile(lat, 0.99),
		rtMet:     float64(st.rtMet) / float64(st.rtTotal),
		delivered: float64(st.delivered) / float64(st.offered),
		fairness:  st.jainSum / st.jainW,
	}
	// Utilisation over the arrival span: the tail spent draining
	// upper-limited leaves after the last arrival is not link load.
	span := st.lastAt - st.trace[0].at
	v.util = float64(st.workByLast) / (float64(replayRate) * float64(span) / 1e9)
	return v
}

// replayRound is one set-up plus one timed replay.
type replayRound struct {
	st    *replayState
	setup time.Duration
	ph    *phase
	items int64
	heap  uint64
	tr    *lane
	v     virtualMetrics
}

func replayOnce(seed uint64, n int, traced bool) (*replayRound, error) {
	t0 := time.Now()
	trace, err := genReplayTrace(seed, n)
	if err != nil {
		return nil, err
	}
	tree, err := buildReplayTree()
	if err != nil {
		return nil, err
	}
	st := newReplayState(tree, trace)
	link := coreLink{s: tree.s}
	warm := n / 16
	st.replay(link, warm)
	runtime.GC()
	rr := &replayRound{st: st, setup: time.Since(t0), items: int64(n - warm)}

	if traced {
		rr.tr = newLane(time.Now(), 5*n/2)
		link.tr = rr.tr
	}
	rr.ph = startPhase()
	st.clock = newChunkClock(chunkItems, st.delivered)
	st.replay(link, n)
	st.clock.flush(st.delivered)
	rr.ph.stop()

	rr.v = st.virtual()
	st.trace, st.lat = nil, nil // the inputs are not part of the system's heap
	rr.heap = liveHeap()
	runtime.KeepAlive(tree)
	return rr, nil
}

func runReplay(o opts) (*result, error) {
	return replayRun(o, replayItems)
}

// replayRun replays n-arrival traces in rounds of set-up plus replay,
// two rounds per three seconds asked for (a round took 0.75–1.5 s on a
// shared 2-vCPU Xeon, depending on the host's load); traced runs
// alternate untraced and traced rounds.
func replayRun(o opts, n int) (*result, error) {
	rounds := max(1, 2*o.seconds/3)
	if o.trace {
		rounds = max(2, rounds)
	}
	res := &result{}
	var figs, tfigs roundFigures
	var first *virtualMetrics
	var last *replayRound
	var gcs uint32
	var pause time.Duration
	for r := 0; r < rounds; r++ {
		traced := o.trace && r%2 == 1
		rr, err := replayOnce(o.seed, n, traced)
		if err != nil {
			return nil, err
		}
		st := rr.st
		res.attempted += st.offered
		res.delivered += st.delivered
		res.refused += st.refused
		res.failures = append(res.failures, st.failures...)
		if first == nil {
			v := rr.v
			first = &v
		} else if rr.v != *first {
			res.failf("virtual-clock metrics differ between rounds of one seed: %+v vs %+v", rr.v, *first)
		}
		if traced {
			tfigs.addRound(rr.setup.Seconds(), rr.ph, st.clock, rr.items, rr.heap)
			last = rr
		} else {
			figs.addRound(rr.setup.Seconds(), rr.ph, st.clock, rr.items, rr.heap)
		}
		gcs += rr.ph.gcs
		pause += rr.ph.gcPause
	}

	vals := map[string]float64{}
	if !o.trace {
		figs.into(vals)
		vals["latency_p50_us"] = first.p50
		vals["latency_p99_us"] = first.p99
		vals["rt_met_ratio"] = first.rtMet
		vals["delivered_ratio"] = first.delivered
		vals["ls_fairness"] = first.fairness
		vals["link_util"] = first.util
		report(res, false, vals)
		return res, nil
	}

	st := summarize([]*lane{last.tr})
	items := float64(last.items)
	wallPerItem := float64(last.ph.wall.Nanoseconds()) / items
	vals["core.offer_ns"] = float64(st.selfNs[spOffer]) / items
	vals["core.dequeue_ns"] = float64(st.selfNs[spDequeue]) / items
	vals["core.next_ready_ns"] = float64(st.selfNs[spNextReady]) / items
	vals["core.empty_dequeue_ratio"] = float64(last.st.emptyDeq) / float64(last.st.deqCalls)
	vals["core.backlog_peak"] = float64(last.st.backlogPeak)
	vals["bench.residual_ns"] = float64(st.selfNs[spTurn]) / items
	vals["runtime.gc_cycles"] = float64(gcs) / float64(rounds)
	vals["runtime.gc_pause_ms"] = pause.Seconds() * 1e3 / float64(rounds)
	vals["bench.trace_overhead_ratio"] = median(tfigs.wall)/median(figs.wall) - 1
	sum := vals["core.offer_ns"] + vals["core.dequeue_ns"] + vals["core.next_ready_ns"] + vals["bench.residual_ns"]
	if math.Abs(sum-wallPerItem) > breakdownSlack*wallPerItem {
		res.failf("breakdown: core self times + turn spans = %.1f ns/item, traced wall = %.1f ns/item (slack %.0f%%)",
			sum, wallPerItem, 100*breakdownSlack)
	}
	if err := writeSpans(o.spansDir, o.label, []*lane{last.tr}); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	report(res, true, vals)
	return res, nil
}

// chunkItems is the chunk the replay and shaper phases are timed in.
const chunkItems = 1 << 16

// breakdownSlack is how far the replay-4k span breakdown (core self times
// plus the turn spans' self time) may sit from the traced wall time per
// item: the share of the loop no span covers, about 4% on a 2-vCPU Xeon.
const breakdownSlack = 0.10
