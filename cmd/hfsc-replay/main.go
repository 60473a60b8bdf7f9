// Command hfsc-replay evaluates a hierarchy spec against a packet trace:
// it replays the trace through the chosen scheduler and reports per-class
// throughput, drops and delay statistics. Use cmd/hfsc-trace to generate
// synthetic traces, or write your own in the text format of
// internal/trace.
//
// Usage:
//
//	hfsc-replay -spec link.conf -algo hfsc  trace.txt
//	hfsc-replay -spec link.conf -algo wf2q  trace.txt   (H-WF2Q+ baseline)
//	hfsc-replay -spec link.conf -algo sfq   trace.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/flight"
	"github.com/netsched/hfsc/internal/hierarchy"
	"github.com/netsched/hfsc/internal/pfq"
	"github.com/netsched/hfsc/internal/sched"
	"github.com/netsched/hfsc/internal/sim"
	"github.com/netsched/hfsc/internal/stats"
	"github.com/netsched/hfsc/internal/tcconf"
	"github.com/netsched/hfsc/internal/trace"
)

func main() {
	specPath := flag.String("spec", "", "hierarchy spec file (required)")
	algo := flag.String("algo", "hfsc", "scheduler: hfsc, wf2q, sfq")
	qlen := flag.Int("qlen", 1000, "default per-class queue limit (packets)")
	tcMode := flag.Bool("tc", false, "parse the spec as Linux tc(8) HFSC commands")
	events := flag.String("events", "", "write the flight-recorder event stream as JSON lines to this file (hfsc only; - for stdout)")
	auditFlag := flag.Bool("audit", false, "run the online guarantee auditor over the replay and report per-class verdicts (hfsc only)")
	flag.Parse()
	if *specPath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hfsc-replay -spec <file> [-algo hfsc|wf2q|sfq] <trace-file|->")
		os.Exit(2)
	}

	sf, err := os.Open(*specPath)
	if err != nil {
		fatal(err)
	}
	var spec *hierarchy.Spec
	if *tcMode {
		spec, err = tcconf.Parse(sf)
	} else {
		spec, err = hierarchy.Parse(sf)
	}
	sf.Close()
	if err != nil {
		fatal(err)
	}

	var tr io.Reader = os.Stdin
	if flag.Arg(0) != "-" {
		tf, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		tr = tf
	}
	recs, err := trace.Read(tr)
	if err != nil {
		fatal(err)
	}

	var (
		s       sched.Scheduler
		classID func(string) (int, bool)
		name    = map[int]string{}
		rec     *flight.Recorder
		aud     *audit.Auditor
		batch   *core.Batch
	)
	switch *algo {
	case "hfsc":
		opts := core.Options{DefaultQueueLimit: *qlen}
		var sinks []core.Sink
		if *events != "" {
			// Replayed traces report dequeues through the same flight
			// recorder a live PacedQueue uses, so replay and production
			// event streams are directly comparable. Size the ring to hold
			// the whole replay (a handful of events per packet).
			rec = flight.New(8 * len(recs))
			sinks = append(sinks, rec)
		}
		if *auditFlag {
			// The same online auditor a production scheduler runs
			// (hfsc.Config.Audit), fed offline — so its verdicts can be
			// cross-checked against the replay's packet-level statistics.
			aud = audit.New(spec.LinkRate)
			sinks = append(sinks, aud)
		}
		if len(sinks) > 0 {
			// One staging batch feeds every sink, as hfsc.New wires them;
			// it is published once the replay has run.
			batch = core.NewBatch(sinks...)
			opts.Tracer = batch
		}
		sch, byName, err := spec.BuildHFSC(opts)
		if err != nil {
			fatal(err)
		}
		s = sch
		classID = func(n string) (int, bool) {
			c, ok := byName[n]
			if !ok {
				return 0, false
			}
			name[c.ID()] = n
			return c.ID(), true
		}
	case "wf2q", "sfq":
		a := pfq.WF2Q
		if *algo == "sfq" {
			a = pfq.SFQ
		}
		h, byName, err := spec.BuildHPFQ(a, *qlen)
		if err != nil {
			fatal(err)
		}
		s = h
		classID = func(n string) (int, bool) {
			c, ok := byName[n]
			if !ok {
				return 0, false
			}
			name[c.ID()] = n
			return c.ID(), true
		}
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}
	if *events != "" && rec == nil {
		fatal(fmt.Errorf("-events requires -algo hfsc (the %s baseline has no tracer)", *algo))
	}
	if *auditFlag && aud == nil {
		fatal(fmt.Errorf("-audit requires -algo hfsc (the %s baseline has no tracer)", *algo))
	}

	arr, err := trace.Bind(recs, classID)
	if err != nil {
		fatal(err)
	}
	res := sim.RunTrace(s, spec.LinkRate, arr, 0)
	if batch != nil {
		batch.Publish()
	}

	if rec != nil {
		ew := os.Stdout
		if *events != "-" {
			f, err := os.Create(*events)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			ew = f
		}
		err := flight.WriteEvents(ew, rec.Snapshot(nil), func(id int32) string { return name[int(id)] })
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hfsc-replay: %d events recorded (%d overwritten)\n", rec.Recorded(), rec.Dropped())
	}

	perClass := map[int]*stats.Sample{}
	bytes := map[int]int64{}
	var lastDepart int64
	for _, p := range res.Departed {
		sm := perClass[p.Class]
		if sm == nil {
			sm = &stats.Sample{}
			perClass[p.Class] = sm
		}
		sm.Add(float64(p.Depart - p.Arrival))
		bytes[p.Class] += int64(p.Len)
		if p.Depart > lastDepart {
			lastDepart = p.Depart
		}
	}

	fmt.Printf("replayed %d arrivals (%d dropped) over %s at %s (%s)\n\n",
		res.Offered, res.Drops, stats.FmtDur(float64(lastDepart)),
		stats.FmtRate(float64(spec.LinkRate)), *algo)
	tbl := &stats.Table{Header: []string{"class", "packets", "throughput", "delay mean", "p99", "max"}}
	for id, sm := range perClass {
		thr := float64(bytes[id]) / (float64(lastDepart) / 1e9)
		tbl.AddRow(name[id], fmt.Sprintf("%d", sm.N()), stats.FmtRate(thr),
			stats.FmtDur(sm.Mean()), stats.FmtDur(sm.Quantile(0.99)), stats.FmtDur(sm.Max()))
	}
	if err := tbl.Write(os.Stdout); err != nil {
		fatal(err)
	}

	if aud != nil {
		snap := aud.Snapshot()
		fmt.Printf("\nguarantee audit: link verdict %s\n", snap.Verdict())
		atbl := &stats.Table{Header: []string{"class", "verdict", "checks", "violations", "worst cause", "min margin", "worst late"}}
		for _, c := range snap.Classes {
			if !c.Guaranteed && c.Violations == 0 {
				continue
			}
			worst := "-"
			var topN uint64
			for i, n := range c.ViolationsByCause {
				if n > topN {
					worst, topN = audit.Cause(i).String(), n
				}
			}
			margin := "-"
			if c.MinMarginEverNs != curve.Inf {
				margin = stats.FmtDur(float64(c.MinMarginEverNs))
			}
			atbl.AddRow(c.Name, c.Verdict.String(), fmt.Sprintf("%d", c.Checks),
				fmt.Sprintf("%d", c.Violations), worst, margin, stats.FmtDur(float64(c.WorstLateNs)))
		}
		if err := atbl.Write(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hfsc-replay: %v\n", err)
	os.Exit(1)
}
