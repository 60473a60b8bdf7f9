// Hfsc-serve is the observability example: a multi-shard PacedQueue shaping synthetic
// traffic in real time, with the scheduler's metrics scraped over HTTP in
// Prometheus text format and its internals — the flight-recorder event
// stream and the live class tree — served as JSON debug endpoints. The
// paper's measurement methodology turned into production monitoring.
//
// Run it and scrape:
//
//	go run ./examples/hfsc-serve -listen :9153
//	curl localhost:9153/metrics              # Prometheus counters + histograms
//	curl localhost:9153/debug/hfsc/tree      # live class tree (virtual times, curves, backlog)
//	curl 'localhost:9153/debug/hfsc/events?n=50'  # newest flight-recorder events
//
// With -requests N the same binary demos request scheduling instead:
// an hfscmw.Limiter admission-controls a synthetic HTTP endpoint over N
// concurrency seats for three tenant tiers under 2x offered load
// (see requests.go):
//
//	go run ./examples/hfsc-serve -requests 8
//	curl localhost:9153/work -H 'X-Tenant: interactive'
//	curl localhost:9153/admission/stats
//
// With -debug, Go's pprof profiles and expvar process stats come up too:
//
//	go run ./examples/hfsc-serve -debug
//	curl localhost:9153/debug/vars
//	go tool pprof localhost:9153/debug/pprof/profile
//
// The built-in load keeps three classes busy: a 64 Kb/s CBR "voice" class
// with a real-time curve, a greedy "bulk" class with a short queue (so
// queue-limit drops show up), and an upper-limited "capped" class (so
// deferral events show up). Watch hfsc_deadline_slack_seconds stay
// positive for voice while hfsc_drops_total climbs for bulk. The classes
// spread across scheduler shards; /metrics and /debug/hfsc/* report them
// merged under their global ids.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	hfsc "github.com/netsched/hfsc"
)

func main() {
	listen := flag.String("listen", ":9153", "HTTP listen address")
	rate := flag.Uint64("rate", 1, "link rate in Mb/s")
	shards := flag.Int("shards", 0, "scheduler shards (0 = one per CPU)")
	dbg := flag.Bool("debug", false, "expose net/http/pprof and expvar under /debug")
	spans := flag.Int("spans", 64, "sample 1-in-N packets for lifecycle spans (0 = off)")
	records := flag.Int("flight-records", 0, "flight recorder ring size per shard (0 = default)")
	requests := flag.Int("requests", 0, "request mode: admission-control a demo HTTP endpoint with this many concurrency seats instead of shaping packets")
	flag.Parse()

	if *requests > 0 {
		runRequestMode(*listen, *requests)
		return
	}

	link := *rate * hfsc.Mbps
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{
			LinkRate:          link,
			DefaultQueueLimit: 1000,
			Metrics:           true,
			Flight:            true,
			FlightRecords:     *records,
			Spans:             *spans,
			Audit:             true,
		},
		Shards: *shards,
	}, func(p *hfsc.Packet) {
		// A real datapath would write p.Payload to a socket here.
	})
	if err != nil {
		log.Fatal(err)
	}

	voiceRT, err := hfsc.ForRealTime(160, 5*time.Millisecond, 64*hfsc.Kbps)
	if err != nil {
		log.Fatal(err)
	}
	voice, err := m.AddClass("", "voice", hfsc.ClassConfig{
		RealTime:  voiceRT,
		LinkShare: hfsc.Linear(64 * hfsc.Kbps),
	})
	if err != nil {
		log.Fatal(err)
	}
	bulk, err := m.AddClass("", "bulk", hfsc.ClassConfig{
		LinkShare:  hfsc.Linear(link * 3 / 4),
		QueueLimit: 32, // short queue: overload surfaces as queue-limit drops
	})
	if err != nil {
		log.Fatal(err)
	}
	capped, err := m.AddClass("", "capped", hfsc.ClassConfig{
		LinkShare:  hfsc.Linear(link / 4),
		UpperLimit: hfsc.Linear(link / 10),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Admissible(); err != nil {
		log.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	// Synthetic load. Submit stamps nothing; the pacing goroutine stamps
	// Arrival on enqueue, so queue-delay histograms measure shaper time.
	go func() { // voice: 160 B every 20 ms = 64 Kb/s CBR
		for range time.Tick(20 * time.Millisecond) {
			m.Submit(&hfsc.Packet{Len: 160, Class: voice})
		}
	}()
	go func() { // bulk: bursts that overdrive the link
		for range time.Tick(10 * time.Millisecond) {
			for i := 0; i < 2; i++ {
				m.Submit(&hfsc.Packet{Len: 1200, Class: bulk})
			}
		}
	}()
	go func() { // capped: ~2x its upper limit, with jittered sizes
		for range time.Tick(25 * time.Millisecond) {
			m.Submit(&hfsc.Packet{Len: 400 + rand.Intn(400), Class: capped})
		}
	}()

	// Periodic driver-level stats: the typed PacedStats snapshot covers the
	// intake and pacing side (what /metrics covers for the scheduler side).
	go func() {
		for range time.Tick(10 * time.Second) {
			st := m.Stats()
			log.Printf("paced: sent=%d pkts %d B, intake drops full=%d stopped=%d, backlog=%d, shard high-water=%v",
				st.SentPackets, st.SentBytes, st.DropsIntakeFull, st.DropsStopped, st.IntakeBacklog, st.ShardHighWater)
		}
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := m.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	// /debug/hfsc/tree: the live class tree — curves, virtual times,
	// eligible/deadline times, backlog — captured by each shard's pacing
	// goroutine between scheduling passes.
	mux.HandleFunc("/debug/hfsc/tree", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m.DumpTree()); err != nil {
			log.Printf("tree dump: %v", err)
		}
	})

	// /debug/hfsc/audit: the online guarantee auditor's verdicts — per
	// class conformance checks, attributed violations, margin minima and
	// burn rates — merged across shards under global ids. This is what
	// hfsc-top's verdict column reads.
	mux.HandleFunc("/debug/hfsc/audit", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(hfsc.AuditSnapshotJSON(m.AuditSnapshot())); err != nil {
			log.Printf("audit dump: %v", err)
		}
	})

	// /debug/hfsc/events: the merged flight-recorder stream as a JSON
	// array, newest last. ?n=K limits to the K newest events (default
	// 256, capped at the rings' capacity).
	mux.HandleFunc("/debug/hfsc/events", func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		recs := m.FlightEvents(nil)
		if len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		// Name the records from a metrics snapshot taken after them: every
		// class that produced an event and is still live is in it.
		names := map[int32]string{}
		for _, c := range m.Snapshot().Classes {
			names[int32(c.ID)] = c.Name
		}
		out := make([]hfsc.FlightEvent, len(recs))
		for i, rec := range recs {
			out[i] = hfsc.FlightEventJSON(rec, func(id int32) string { return names[id] })
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			log.Printf("event dump: %v", err)
		}
	})

	if *dbg {
		start := time.Now()
		expvar.Publish("hfsc.shards", expvar.Func(func() any { return m.NumShards() }))
		expvar.Publish("hfsc.uptime_seconds", expvar.Func(func() any { return time.Since(start).Seconds() }))
		expvar.Publish("hfsc.goroutines", expvar.Func(func() any { return runtime.NumGoroutine() }))
		if bi, ok := debug.ReadBuildInfo(); ok {
			expvar.NewString("hfsc.build").Set(bi.Main.Path + " " + bi.GoVersion)
		}
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	log.Printf("serving on %s: /metrics /debug/hfsc/tree /debug/hfsc/audit /debug/hfsc/events (link %d Mb/s, %d shards, debug=%v)",
		*listen, *rate, m.NumShards(), *dbg)
	log.Fatal(http.ListenAndServe(*listen, mux))
}
