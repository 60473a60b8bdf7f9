package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/netsched/hfsc/hfscmw"
)

// mw-churn: request admission in real time. An hfscmw.Limiter over 32
// seats serves 8 guaranteed SLO tenants and a best-effort population
// whose names slide through a Zipf popularity window, so tenant classes
// are created and idle-evicted continuously beside the admission path.
// An open-loop generator issues requests at their due times — 90% of
// seat capacity on average, in waves that overload it for half of
// every period — and each admitted request reports a seeded deviation
// from its estimate through Ticket.Finish. Estimates and SLO latencies
// are tens of milliseconds, an order of magnitude above the scheduling
// stalls a shared host imposes, so latency measures the scheduler.
const (
	churnSeats     = 32
	churnLoad      = 0.9
	wavePeriod     = 2 * time.Second
	waveSurge      = time.Second
	waveFactor     = 1.3 // total load during a surge, share of capacity
	sloTenants     = 8
	sloLatency     = 200 * time.Millisecond
	sloCost        = 80 * time.Millisecond
	beWindow       = 64                     // best-effort names in the popularity window
	beSlide        = 100 * time.Millisecond // the window advances one name this often
	evictAfter     = 500 * time.Millisecond
	scrapeInterval = 500 * time.Millisecond
	setupReps      = 15
	setupTenants   = 128 // best-effort tenants created during set-up
	warmRequests   = 16  // requests set-up admits, one per tenant
)

// ops are the request kinds and their service-time estimates; mix is
// each op's share of best-effort requests.
var (
	ops      = []string{"light", "std", "heavy"}
	opCost   = map[string]time.Duration{"light": 40 * time.Millisecond, "std": sloCost, "heavy": 160 * time.Millisecond}
	opMix    = []float64{0.5, 0.3, 0.2}
	sloShape = hfscmw.SLO{Burst: 2, Latency: sloLatency, Sustained: 1}
)

// request is one scheduled request and, after it ran, its outcome.
type request struct {
	due    int64 // ns after the phase start
	tenant string
	op     string
	slo    bool
	cold   bool    // the tenant had certainly been evicted (or never existed)
	actual float64 // reported service time, as a multiple of the estimate

	launched, admitted int64 // ns after the phase start; admitted 0 = not admitted
	err                error
}

// genChurn builds the request schedule for a phase of the given length.
func genChurn(seed uint64, length time.Duration) []request {
	rng := rand.New(rand.NewPCG(seed, 0x636875726e))
	var reqs []request
	// Guaranteed tenants: one standard request every sloCost/0.9,
	// jittered by ±2ms, well inside their SLO's sustained seat.
	gap := float64(sloCost) / churnLoad
	for t := 0; t < sloTenants; t++ {
		for at := rng.Float64() * gap; at < float64(length); at += gap {
			due := int64(at) + rng.Int64N(int64(4*time.Millisecond)) - int64(2*time.Millisecond)
			reqs = append(reqs, request{due: max(0, due), tenant: fmt.Sprintf("slo-%d", t), op: "std", slo: true})
		}
	}
	// Best effort: each surge or quiet segment gets exactly its share of
	// seat-time, spread evenly over it (one request per equal slot, at a
	// random point in the slot) and split over the popularity ranks in
	// fixed proportions, so the queueing a segment sees comes from its
	// load and the scheduler, not from chance clumping.
	sloSeats := sloTenants * churnLoad
	surgeSeats := waveFactor*churnSeats - sloSeats
	quietSeats := (churnLoad*churnSeats - sloSeats - surgeSeats*float64(waveSurge)/float64(wavePeriod)) /
		(1 - float64(waveSurge)/float64(wavePeriod))
	var carry float64
	var segOps []string
	for seg := int64(0); seg < int64(length); {
		seats, segLen := surgeSeats, int64(waveSurge)
		if seg%int64(wavePeriod) != 0 {
			seats, segLen = quietSeats, int64(wavePeriod-waveSurge)
		}
		segLen = min(segLen, int64(length)-seg)
		budget := seats*float64(segLen) - carry
		for segOps = segOps[:0]; budget > 0; {
			op := ops[pick(rng, opMix)]
			segOps = append(segOps, op)
			budget -= float64(opCost[op])
		}
		ranks := zipfRanks(len(segOps))
		rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
		slot := float64(segLen) / float64(len(segOps))
		for j, op := range segOps {
			due := seg + int64((float64(j)+rng.Float64())*slot)
			name := fmt.Sprintf("be-%d", due/int64(beSlide)+int64(ranks[j]))
			reqs = append(reqs, request{due: due, tenant: name, op: op})
		}
		carry = -budget
		seg += segLen
	}
	slices.SortStableFunc(reqs, func(a, b request) int { return cmpInt64(a.due, b.due) })
	last := map[string]int64{}
	for i := range reqs {
		r := &reqs[i]
		r.actual = 0.75 + 0.5*rng.Float64()
		prev, seen := last[r.tenant]
		r.cold = !seen || r.due-prev > int64(3*evictAfter)
		last[r.tenant] = r.due
	}
	return reqs
}

// zipfRanks returns k popularity ranks (0 = hottest) in Zipf proportions
// — share ∝ (1+rank)^-1.2 over the window — rounded by largest remainder,
// so each segment's load per rank is fixed and only the order and timing
// of requests come from the seed.
func zipfRanks(k int) []int {
	var w [beWindow]float64
	var sum float64
	for r := range w {
		w[r] = math.Pow(1+float64(r), -1.2)
		sum += w[r]
	}
	ranks := make([]int, 0, k)
	rem := make([]float64, beWindow)
	for r := range w {
		exact := float64(k) * w[r] / sum
		for n := int(exact); n > 0; n-- {
			ranks = append(ranks, r)
		}
		rem[r] = exact - math.Floor(exact)
	}
	for len(ranks) < k {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		ranks = append(ranks, best)
		rem[best] = -1
	}
	return ranks
}

func pick(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// newLimiter builds the limiter, registers the guaranteed tenants against
// the ledger, creates the first setupTenants best-effort tenants (the
// names the schedule starts with), warms the admission path up and polls
// the telemetry once.
func newLimiter() (*mwLink, error) {
	l, err := hfscmw.New(hfscmw.Config{
		Concurrency: churnSeats,
		Estimate:    func(_, op string) time.Duration { return opCost[op] },
		EvictAfter:  evictAfter,
		Metrics:     true,
		Audit:       true,
	})
	if err != nil {
		return nil, err
	}
	m := &mwLink{l: l}
	for t := 0; t < sloTenants+setupTenants; t++ {
		name, slo := setupTenant(t), sloShape
		if t >= sloTenants {
			slo = hfscmw.SLO{}
		}
		g, err := m.addTenant(nil, name, slo)
		if err == nil && g == slo.IsZero() {
			err = fmt.Errorf("tenant %s: guaranteed=%t, want %t", name, g, !slo.IsZero())
		}
		if err != nil {
			l.Close()
			return nil, err
		}
	}
	if err := warmUp(m); err != nil {
		l.Close()
		return nil, err
	}
	if err := m.scrape(nil); err != nil {
		l.Close()
		return nil, err
	}
	return m, nil
}

// setupTenant names the t-th tenant set-up creates: the guaranteed
// tenants, then the best-effort ones.
func setupTenant(t int) string {
	if t < sloTenants {
		return fmt.Sprintf("slo-%d", t)
	}
	return fmt.Sprintf("be-%d", t-sloTenants)
}

// warmUp admits one light request for each of the first warmRequests
// set-up tenants at once and finishes each on its estimate, so gates,
// pool, corrections and the pacing loop's park and wake have all run
// before the phase. The scheduler paces the burst at the seat rate
// (1.25 ms per light request), which puts set-up at about 20 ms.
func warmUp(m *mwLink) error {
	errs := make([]error, warmRequests)
	var wg sync.WaitGroup
	for t := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := m.admit(nil, context.Background(), setupTenant(t), "light", 0)
			if err != nil {
				errs[t] = fmt.Errorf("warm-up request for %s: %w", setupTenant(t), err)
				return
			}
			m.finish(nil, tk, opCost["light"], 0)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// churnPhase is one limiter serving one schedule.
type churnPhase struct {
	reqs                 []request
	lanes                []*lane
	setups               []float64
	ph                   *phase
	heap                 uint64
	created, evicted     int
	seatTime             time.Duration
	scrapeErr            error
	genLane              *lane
	failures             []string
	admitted, overloaded int64
}

func (c *churnPhase) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func churnOnce(seed uint64, length time.Duration, traced bool) (*churnPhase, error) {
	c := &churnPhase{}
	var m *mwLink
	// Set-up (limiter, tenants, warm-up) runs setupReps times for a
	// stable median; the last limiter serves the phase. The schedule is
	// the harness's input, not the program's set-up, so it is made once
	// and untimed; each rep starts from a collected heap so the timed
	// window does not pay for the previous rep's garbage.
	c.reqs = genChurn(seed, length)
	for i := 0; i < setupReps; i++ {
		if m != nil {
			m.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, err = newLimiter(); err != nil {
			return nil, err
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	n0, id0 := m.liveClasses()

	epoch := time.Now()
	if traced {
		spans := make([]span, 2*len(c.reqs))
		c.lanes = make([]*lane, len(c.reqs))
		for i := range c.lanes {
			c.lanes[i] = &lane{epoch: epoch, spans: spans[2*i : 2*i : 2*i+2], open: -1}
		}
		c.genLane = newLane(epoch, 64)
	}
	var wg sync.WaitGroup
	ctx := context.Background()
	c.ph = startPhase()
	nextScrape := int64(scrapeInterval)
	for i := range c.reqs {
		r := &c.reqs[i]
		if d := time.Duration(r.due - int64(time.Since(epoch))); d > 0 {
			time.Sleep(d)
		}
		if now := int64(time.Since(epoch)); now >= nextScrape {
			nextScrape += int64(scrapeInterval)
			if err := m.scrape(c.genLane); err != nil && c.scrapeErr == nil {
				c.scrapeErr = err
			}
		}
		var tr *lane
		if traced {
			tr = c.lanes[i]
		}
		r.launched = int64(time.Since(epoch))
		wg.Add(1)
		go func(r *request, tr *lane, item uint64) {
			defer wg.Done()
			tk, err := m.admit(tr, ctx, r.tenant, r.op, item)
			if err != nil {
				r.err = err
				return
			}
			r.admitted = int64(time.Since(epoch))
			m.finish(tr, tk, time.Duration(r.actual*float64(opCost[r.op])), item)
		}(r, tr, uint64(i))
	}
	wg.Wait()
	c.ph.stop()

	for i := range c.reqs {
		r := &c.reqs[i]
		switch {
		case r.err == nil:
			c.admitted++
			c.seatTime += time.Duration(r.actual * float64(opCost[r.op]))
		case errors.Is(r.err, hfscmw.ErrOverloaded):
			c.overloaded++
		default:
			c.failf("request %d (%s): %v", i, r.tenant, r.err)
		}
	}
	for name, st := range m.l.Stats() {
		if strings.HasPrefix(name, "slo-") && !st.Guaranteed {
			c.failf("guaranteed tenant %s lost its guarantee during the run", name)
		}
	}
	n1, id1 := m.liveClasses()
	c.created = id1 - id0
	c.evicted = c.created - (n1 - n0)
	c.heap = liveHeap()

	// Once traffic stops every tenant goes idle and is evicted, releasing
	// its ledger hold; after Close nothing may remain held.
	deadline := time.Now().Add(6 * evictAfter)
	for len(m.l.Stats()) > 0 && time.Now().Before(deadline) {
		time.Sleep(evictAfter / 10)
	}
	if rows := m.close(); len(rows) > 0 {
		c.failf("ledger holds %d rows after every tenant went idle and the limiter closed (first: %s)", len(rows), rows[0].ID)
	}
	return c, nil
}

func runChurn(o opts) (*result, error) {
	length := time.Duration(o.seconds) * time.Second
	res := &result{}
	vals := map[string]float64{}
	phases := []bool{false}
	if o.trace {
		length = max(length/2, time.Second)
		phases = []bool{false, true}
	}
	var plain, traced *churnPhase
	for _, tr := range phases {
		c, err := churnOnce(o.seed, length, tr)
		if err != nil {
			return nil, err
		}
		res.attempted += int64(len(c.reqs))
		res.delivered += c.admitted
		res.refused += int64(len(c.reqs)) - c.admitted
		res.failures = append(res.failures, c.failures...)
		if c.scrapeErr != nil {
			res.failf("telemetry poll: %v", c.scrapeErr)
		}
		if tr {
			traced = c
		} else {
			plain = c
		}
	}

	items := float64(plain.admitted)
	var lat, sloWait []float64
	var met float64
	for _, r := range plain.reqs {
		if r.err != nil {
			continue
		}
		wait := float64(r.admitted - r.due)
		lat = append(lat, wait/1e3)
		if r.slo {
			sloWait = append(sloWait, wait)
			if wait <= float64(sloLatency) {
				met++
			}
		}
	}
	if !o.trace {
		s := sorted(lat)
		vals["setup_s"] = median(plain.setups)
		vals["throughput_per_s"] = items / plain.ph.wall.Seconds()
		// Over the whole phase: per-request CPU climbs through a run as
		// the metrics exposition grows with every class ever created, so
		// no single stretch of it is representative.
		vals["cpu_us_per_item"] = plain.ph.cpu.Seconds() * 1e6 / items
		vals["latency_p50_us"] = quantile(s, 0.5)
		vals["latency_p99_us"] = quantile(s, 0.99)
		vals["rt_met_ratio"] = met / float64(len(sloWait))
		vals["delivered_ratio"] = items / float64(len(plain.reqs))
		vals["ls_fairness"] = 1 // no link-sharing fairness figure for admission: not applicable
		vals["link_util"] = plain.seatTime.Seconds() / (churnSeats * plain.ph.wall.Seconds())
		vals["allocs_per_item"] = float64(plain.ph.mallocs) / items
		vals["live_heap_mb"] = float64(plain.heap) / (1 << 20)
		report(res, false, vals)
		return res, nil
	}

	var admit, fresh []float64
	var finishNs, finishN float64
	for i, l := range traced.lanes {
		for _, s := range l.spans {
			if s.end == 0 {
				continue
			}
			d := float64(s.end - s.start)
			switch s.name {
			case spAdmit:
				admit = append(admit, d/1e3)
				if traced.reqs[i].cold {
					fresh = append(fresh, d/1e3)
				}
			case spFinish:
				finishNs += d
				finishN++
			}
		}
	}
	as := sorted(admit)
	var late []float64
	for _, r := range traced.reqs {
		late = append(late, float64(r.launched-r.due)/1e3)
	}
	st := summarize([]*lane{traced.genLane})
	vals["hfscmw.admit_p50_us"] = quantile(as, 0.5)
	vals["hfscmw.admit_p99_us"] = quantile(as, 0.99)
	vals["hfscmw.new_tenant_admit_us"] = median(fresh)
	vals["hfscmw.finish_us"] = finishNs / finishN / 1e3
	vals["hfscmw.overloaded_ratio"] = float64(traced.overloaded) / float64(len(traced.reqs))
	vals["lifecycle.created"] = float64(traced.created)
	vals["lifecycle.evicted"] = float64(traced.evicted)
	vals["telemetry.write_metrics_ms"] = perCall(st, spWriteMetrics) / 1e6
	vals["telemetry.audit_snapshot_ms"] = perCall(st, spAuditSnap) / 1e6
	vals["runtime.gc_cycles"] = float64(traced.ph.gcs)
	vals["runtime.gc_pause_ms"] = traced.ph.gcPause.Seconds() * 1e3
	vals["bench.gen_late_p99_us"] = quantile(sorted(late), 0.99)
	vals["bench.trace_overhead_ratio"] = (traced.ph.cpu.Seconds()/float64(traced.admitted))/(plain.ph.cpu.Seconds()/items) - 1
	all := append([]*lane{traced.genLane}, traced.lanes...)
	if err := writeSpans(o.spansDir, o.label, all); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	report(res, true, vals)
	return res, nil
}
