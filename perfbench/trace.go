package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Span names: one per public call the adapter wraps, plus the benchmark's
// own callback and wait points that the per-layer metrics need.
const (
	spOffer        uint8 = iota // core: Scheduler.Offer
	spDequeue                   // core: Scheduler.DequeueN
	spNextReady                 // core: Scheduler.NextReady
	spSubmit                    // intake: PacedQueue.SubmitN
	spTransmit                  // pace: the Transmit callback's own time
	spWait                      // pace: producer parked on the low-water doorbell
	spScrape                    // telemetry: one operator poll (parent of the three below)
	spWriteMetrics              // telemetry: WriteMetrics
	spAuditSnap                 // telemetry: AuditSnapshot
	spFlightRead                // telemetry: flight recorder Snapshot
	spAdmit                     // hfscmw: Limiter.Admit
	spFinish                    // hfscmw: Ticket.Finish
	spAddTenant                 // hfscmw: Limiter.AddTenant
	spTurn                      // bench: one turn of the replay loop, core calls nested
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.offer", "core.dequeue", "core.next_ready", "intake.submit", "pace.transmit",
	"pace.producer_wait", "telemetry.scrape", "telemetry.write_metrics",
	"telemetry.audit_snapshot", "telemetry.flight_read", "hfscmw.admit",
	"hfscmw.finish", "hfscmw.add_tenant", "bench.turn",
}

// span is one recorded call: when it started and ended (ns since the
// lane's epoch), the item it served, and the enclosing span in the same
// lane (-1 at top level).
type span struct {
	start, end int64
	item       uint64
	parent     int32
	name       uint8
}

// lane records the spans of one goroutine. A nil *lane records nothing,
// which is how untraced runs call through the adapter at no cost beyond a
// nil check.
type lane struct {
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newLane(epoch time.Time, capacity int) *lane {
	return &lane{epoch: epoch, spans: make([]span, 0, capacity), open: -1}
}

func (l *lane) begin(name uint8, item uint64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{start: int64(time.Since(l.epoch)), item: item, parent: l.open, name: name})
	i := int32(len(l.spans) - 1)
	l.open = i
	return i
}

func (l *lane) end(i int32) {
	if l == nil {
		return
	}
	s := &l.spans[i]
	s.end = int64(time.Since(l.epoch))
	l.open = s.parent
}

// spanStats sums self time (duration minus the part child spans cover)
// and call counts per span name over a set of lanes.
type spanStats struct {
	selfNs [numSpanNames]int64
	calls  [numSpanNames]int64
}

func summarize(lanes []*lane) spanStats {
	var st spanStats
	for _, l := range lanes {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			if s.end == 0 {
				continue // never closed (an abandoned request)
			}
			d := s.end - s.start
			st.selfNs[s.name] += d
			st.calls[s.name]++
			if s.parent >= 0 {
				st.selfNs[l.spans[s.parent].name] -= d
			}
		}
	}
	return st
}

// gapNs sums the time between consecutive top-level spans of a lane that
// the spans do not cover, from the lane's first span start to t1 (ns
// since its epoch); overlapping top-level spans are reported as an error
// because they would make the breakdown double-count.
func gapNs(l *lane, t0, t1 int64) (int64, error) {
	var gap int64
	last := t0
	for _, s := range l.spans {
		if s.parent >= 0 {
			continue
		}
		if s.start < last {
			return 0, fmt.Errorf("top-level %s span overlaps the previous one", spanNames[s.name])
		}
		gap += s.start - last
		last = s.end
	}
	return gap + (t1 - last), nil
}

// writeSpans writes every span as tab-separated text (lane, name, start,
// end, parent, item), gzip-compressed, to dir/label.spans.tsv.gz.
func writeSpans(dir, label string, lanes []*lane) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, label+".spans.tsv.gz"))
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "lane\tname\tstart_ns\tend_ns\tparent\titem")
	for li, l := range lanes {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", li, spanNames[s.name], s.start, s.end, s.parent, s.item)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phase measures one timed stretch of a run: wall time, process CPU time
// (user+sys, all goroutines), heap allocations and GC activity.
type phase struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
	t0      time.Time
	cpu0    time.Duration
	ms0     runtimeStats
}

type runtimeStats struct {
	mallocs uint64
	numGC   uint32
	pause   uint64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{mallocs: ms.Mallocs, numGC: ms.NumGC, pause: ms.PauseTotalNs}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startPhase() *phase {
	p := &phase{ms0: readRuntime(), cpu0: processCPU()}
	p.t0 = time.Now()
	return p
}

func (p *phase) stop() {
	p.wall = time.Since(p.t0)
	p.cpu = processCPU() - p.cpu0
	ms := readRuntime()
	p.mallocs = ms.mallocs - p.ms0.mallocs
	p.gcs = ms.numGC - p.ms0.numGC
	p.gcPause = time.Duration(ms.pause - p.ms0.pause)
}

// liveHeap is the heap still reachable: HeapAlloc after two collections,
// the second emptying the sync.Pool victim caches the first one filled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
