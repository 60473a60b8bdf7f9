package experiments

import (
	"io"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/flight"
	"github.com/netsched/hfsc/internal/hierarchy"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/sim"
	"github.com/netsched/hfsc/internal/source"
	"github.com/netsched/hfsc/internal/stats"
)

// obs1Spec is a small mixed workload for validating the observability
// pipeline: a real-time audio class, a greedy bulk class with a short
// queue (drops), and an upper-limited class (deferrals).
const obs1Spec = `
link 10Mbit
class audio root ls=64Kbit rt=rt(160,5ms,64Kbit)
class bulk  root ls=8Mbit qlen=20
class capped root ls=2Mbit ul=1Mbit
`

// obs1Run drives the workload with the metrics aggregator attached and
// returns everything needed to cross-check it against the scheduler's own
// counters.
func obs1Run() (*metrics.Aggregator, *core.Scheduler, map[string]*core.Class, *sim.Result) {
	agg := metrics.NewAggregator()
	spec := hierarchy.MustParse(obs1Spec)
	sch, byName, err := spec.BuildHFSC(core.Options{Tracer: agg})
	if err != nil {
		panic(err)
	}
	const end = 2 * sec
	link, _ := hierarchy.ParseRate("10Mbit")
	trace := source.Merge(
		source.CBR(byName["audio"].ID(), 1, 160, 20*ms, 0, end),
		source.Greedy(byName["bulk"].ID(), 2, 1500, link, 0, end),
		source.CBRRate(byName["capped"].ID(), 3, 1500, link/5, 0, end), // 2 Mb/s into a 1 Mb/s cap
	)
	res := run(sch, link, trace, 0) // unbounded: run until the backlog drains
	return agg, sch, byName, res
}

// Obs1 validates the metrics pipeline end to end: every aggregator counter
// must agree with the scheduler's own per-class accounting, the EWMA rate
// estimates must track the realized throughput, and the deadline-slack
// histogram must confirm the real-time class kept its guarantee.
func Obs1() *Report {
	r := &Report{ID: "OBS-1", Title: "Observability pipeline: event counters vs scheduler ground truth"}
	agg, sch, byName, res := obs1Run()
	snap := agg.Snapshot()

	tbl := &stats.Table{Header: []string{"class", "sent", "drops", "ewma rate", "slack p50", "slack p99", "qdelay p99"}}
	countersMatch, gaugesMatch := true, true
	for _, name := range []string{"audio", "bulk", "capped"} {
		cl := byName[name]
		cs, ok := snap.Class(cl.ID())
		if !ok {
			countersMatch = false
			continue
		}
		if cs.SentPackets() != cl.SentPackets() || cs.DropsQueueLimit != cl.Dropped() {
			countersMatch = false
		}
		if cs.QueuedPackets != int64(cl.QueueLen()) {
			gaugesMatch = false
		}
		tbl.AddRowf(name, cs.SentPackets(), cs.DropsQueueLimit,
			stats.FmtRate(cs.RateBps),
			stats.FmtDur(cs.DeadlineSlack.Quantile(0.5)),
			stats.FmtDur(cs.DeadlineSlack.Quantile(0.99)),
			stats.FmtDur(cs.QueueDelay.Quantile(0.99)))
	}
	r.Tables = append(r.Tables, tbl)

	r.check("aggregator counters match scheduler ground truth", countersMatch,
		"sent/drops per class, %d classes", len(snap.Classes))
	r.check("queue gauges match QueueLen at end of run", gaugesMatch, "%d classes", len(snap.Classes))

	audio, _ := snap.Class(byName["audio"].ID())
	r.check("audio missed no deadlines", audio.DeadlineMisses == 0,
		"%d misses over %d rt dequeues", audio.DeadlineMisses, audio.SentPacketsRT)
	r.check("audio slack histogram covers every rt dequeue",
		audio.DeadlineSlack.Count == audio.SentPacketsRT,
		"%d samples vs %d dequeues", audio.DeadlineSlack.Count, audio.SentPacketsRT)

	bulk, _ := snap.Class(byName["bulk"].ID())
	r.check("overdriven bulk class recorded queue-limit drops", bulk.DropsQueueLimit > 0,
		"%d drops", bulk.DropsQueueLimit)

	capped, _ := snap.Class(byName["capped"].ID())
	// The upper-limited class drains last, alone, at exactly its cap; its
	// EWMA at the end of the run must have converged to that rate.
	capRate, _ := hierarchy.ParseRate("1Mbit")
	r.check("capped EWMA rate within 30% of its upper limit",
		capped.RateBps > 0.7*float64(capRate) && capped.RateBps < 1.3*float64(capRate),
		"ewma %s vs cap %s", stats.FmtRate(capped.RateBps), stats.FmtRate(float64(capRate)))
	r.check("upper-limited run produced deferral events",
		snap.UlimitDefers > 0 || capped.SentPackets() == 0,
		"%d defers", snap.UlimitDefers)

	var total uint64
	for i := range snap.Classes {
		if snap.Classes[i].Leaf {
			total += snap.Classes[i].SentPackets()
		}
	}
	r.check("departures equal leaf sent counters", int(total) == len(res.Departed),
		"%d vs %d departed", total, len(res.Departed))
	r.notef("drops at enqueue per simulator: %d; scheduler backlog at end: %d", res.Drops, sch.Backlog())
	return r
}

// Obs1Exposition runs the OBS-1 workload and writes the resulting metrics
// in Prometheus text format — the artifact behind hfsc-sim's -prom flag.
func Obs1Exposition(w io.Writer) error {
	agg, _, _, _ := obs1Run()
	return metrics.WritePrometheus(w, agg.Snapshot())
}

// Obs1Events runs the OBS-1 workload with a flight recorder staged next
// to the aggregator (one core.Batch feeding both, as hfsc.New wires
// them) and writes the full event stream as JSON lines — the
// artifact behind hfsc-sim's -events flag. Dequeue reporting flows
// through the same recorder a live PacedQueue uses, so simulated and
// production event streams are directly comparable.
func Obs1Events(w io.Writer) error {
	agg := metrics.NewAggregator()
	spec := hierarchy.MustParse(obs1Spec)
	// Room for the whole run: ~2 s of events at a few events per packet.
	rec := flight.New(1 << 17)
	batch := core.NewBatch(agg, rec)
	sch, byName, err := spec.BuildHFSC(core.Options{Tracer: batch})
	if err != nil {
		return err
	}
	const end = 2 * sec
	link, _ := hierarchy.ParseRate("10Mbit")
	trace := source.Merge(
		source.CBR(byName["audio"].ID(), 1, 160, 20*ms, 0, end),
		source.Greedy(byName["bulk"].ID(), 2, 1500, link, 0, end),
		source.CBRRate(byName["capped"].ID(), 3, 1500, link/5, 0, end),
	)
	run(sch, link, trace, 0)
	batch.Publish()
	names := make(map[int32]string, len(byName))
	for n, c := range byName {
		names[int32(c.ID())] = n
	}
	return flight.WriteEvents(w, rec.Snapshot(nil), func(id int32) string { return names[id] })
}
