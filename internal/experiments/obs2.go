package experiments

import (
	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/hierarchy"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/source"
	"github.com/netsched/hfsc/internal/stats"
)

// Obs2 cross-validates the online guarantee auditor against packet-level
// ground truth. Phase one replays the OBS-1 mixed workload (a conforming
// real-time class, an overdriven short-queue class, an upper-limited
// class) with the auditor attached: the conforming class must produce
// zero violations (no false positives), the overdriven class's violations
// must all be attributed to drops and match the scheduler's own drop
// counter, and the auditor's observed delay maximum must not exceed the
// simulator's. Phase two stalls the link under the same real-time load —
// every packet is enqueued on time but served 250 ms late — and the
// auditor must detect the injected lateness and attribute it to the
// scheduler, not the sender.
func Obs2() *Report {
	r := &Report{ID: "OBS-2", Title: "Guarantee auditor: online verdicts vs packet-level ground truth"}

	// Phase one: the OBS-1 workload, honestly scheduled.
	aud := audit.New(10 * 1000 * kbit)
	spec := hierarchy.MustParse(obs1Spec)
	sch, byName, err := spec.BuildHFSC(core.Options{Tracer: aud})
	if err != nil {
		panic(err)
	}
	const end = 2 * sec
	link := spec.LinkRate
	trace := source.Merge(
		source.CBR(byName["audio"].ID(), 1, 160, 20*ms, 0, end),
		source.Greedy(byName["bulk"].ID(), 2, 1500, link, 0, end),
		source.CBRRate(byName["capped"].ID(), 3, 1500, link/5, 0, end),
	)
	res := run(sch, link, trace, 0)
	snap := aud.Snapshot()

	tbl := &stats.Table{Header: []string{"class", "verdict", "checks", "violations", "worst cause", "min margin", "delay max"}}
	for _, name := range []string{"audio", "bulk", "capped"} {
		c, _ := snap.Class(byName[name].ID())
		worst, margin := "-", "-"
		var topN uint64
		for i, n := range c.ViolationsByCause {
			if n > topN {
				worst, topN = audit.Cause(i).String(), n
			}
		}
		if c.MinMarginEverNs != curve.Inf {
			margin = stats.FmtDur(float64(c.MinMarginEverNs))
		}
		tbl.AddRowf(name, c.Verdict.String(), c.Checks, c.Violations, worst, margin, stats.FmtDur(float64(c.DelayMaxNs)))
	}
	r.Tables = append(r.Tables, tbl)

	audio, _ := snap.Class(byName["audio"].ID())
	r.check("conforming rt class audited with zero violations",
		audio.Guaranteed && audio.Violations == 0 && audio.Verdict == audit.VerdictOK,
		"%d violations over %d checks, verdict %s", audio.Violations, audio.Checks, audio.Verdict)
	r.check("every audio dequeue was conformance-checked",
		audio.Checks == byName["audio"].SentPackets(),
		"%d checks vs %d dequeues", audio.Checks, byName["audio"].SentPackets())
	r.check("audio margin observed and positive",
		audio.MinMarginEverNs != curve.Inf && audio.MinMarginEverNs > 0,
		"min margin %s", stats.FmtDur(float64(audio.MinMarginEverNs)))

	// The auditor times delay at the dequeue event; the simulator's Depart
	// additionally includes the transmission time, so the packet-level
	// maximum bounds the auditor's from above.
	var audioPktMax int64
	for _, p := range res.Departed {
		if p.Class != byName["audio"].ID() {
			continue
		}
		if d := p.Depart - p.Arrival; d > audioPktMax {
			audioPktMax = d
		}
	}
	r.check("auditor delay max bounded by packet-level ground truth",
		audio.DelayMaxNs > 0 && audio.DelayMaxNs <= audioPktMax,
		"auditor %s vs packets %s", stats.FmtDur(float64(audio.DelayMaxNs)), stats.FmtDur(float64(audioPktMax)))

	bulk, _ := snap.Class(byName["bulk"].ID())
	r.check("overdriven class violations all attributed to drops",
		bulk.Violations > 0 && bulk.Violations == bulk.ViolationsByCause[audit.CauseDrop],
		"%d violations, %d drop-attributed", bulk.Violations, bulk.ViolationsByCause[audit.CauseDrop])
	r.check("drop-attributed violations match scheduler drop counter",
		bulk.ViolationsByCause[audit.CauseDrop] == byName["bulk"].Dropped(),
		"%d vs %d dropped", bulk.ViolationsByCause[audit.CauseDrop], byName["bulk"].Dropped())

	capped, _ := snap.Class(byName["capped"].ID())
	r.check("upper-limited class (no guarantee) audited clean",
		capped.Violations == 0, "%d violations", capped.Violations)
	r.notef("link verdict %s; %d upper-limit deferrals observed", snap.Verdict(), snap.UlimitDefers)

	// Phase two: injected lateness. The same conforming real-time load is
	// enqueued on time but the link stalls — nothing is served until 250 ms
	// after the last arrival, far past the curve's 5 ms promise.
	aud2 := audit.New(link)
	sch2, byName2, err := spec.BuildHFSC(core.Options{Tracer: aud2})
	if err != nil {
		panic(err)
	}
	const stallEnd = 500 * ms
	audioID := byName2["audio"].ID()
	for _, a := range source.CBR(audioID, 1, 160, 20*ms, 0, stallEnd) {
		sch2.Enqueue(&pktq.Packet{Len: a.Len, Class: a.Class, Flow: a.Flow, Arrival: a.At}, a.At)
	}
	now := stallEnd + 250*ms
	for sch2.Backlog() > 0 {
		p := sch2.Dequeue(now)
		if p == nil {
			break
		}
		now += ms
	}
	snap2 := aud2.Snapshot()
	late, _ := snap2.Class(audioID)
	r.check("injected lateness detected",
		late.Violations > 0, "%d violations over %d checks", late.Violations, late.Checks)
	r.check("injected lateness attributed to the scheduler",
		late.Violations == late.ViolationsByCause[audit.CauseSchedulerLate],
		"%d violations, %d scheduler-attributed", late.Violations, late.ViolationsByCause[audit.CauseSchedulerLate])
	r.check("stalled class verdict is violated",
		late.Verdict == audit.VerdictViolated && snap2.Verdict() == audit.VerdictViolated,
		"class %s, link %s", late.Verdict, snap2.Verdict())
	r.check("worst lateness reflects the injected stall",
		late.WorstLateNs > 200*ms, "worst late %s", stats.FmtDur(float64(late.WorstLateNs)))
	return r
}
