package main

import (
	"math"
	"time"
)

// The end-to-end metrics, in report order, with their units. Every
// workload reports all of them; one that does not apply to a workload is
// reported at its vacuous value (see BENCHMARK.json).
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_item", "us"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"rt_met_ratio", "ratio"},
	{"delivered_ratio", "ratio"},
	{"ls_fairness", "jain"},
	{"link_util", "ratio"},
	{"allocs_per_item", "count"},
	{"live_heap_mb", "MiB"},
}

// The per-layer metrics, named after the layer they measure. A layer a
// workload does not exercise reports 0.
var layerUnits = []struct{ name, unit string }{
	{"core.offer_ns", "ns"},
	{"core.dequeue_ns", "ns"},
	{"core.next_ready_ns", "ns"},
	{"core.empty_dequeue_ratio", "ratio"},
	{"core.backlog_peak", "count"},
	{"intake.submit_ns", "ns"},
	{"intake.full_ratio", "ratio"},
	{"intake.shard_highwater", "count"},
	{"pace.tx_gap_ns", "ns"},
	{"pace.producer_wait_us", "us"},
	{"telemetry.write_metrics_ms", "ms"},
	{"telemetry.audit_snapshot_ms", "ms"},
	{"telemetry.flight_read_us", "us"},
	{"hfscmw.admit_p50_us", "us"},
	{"hfscmw.admit_p99_us", "us"},
	{"hfscmw.new_tenant_admit_us", "us"},
	{"hfscmw.finish_us", "us"},
	{"hfscmw.overloaded_ratio", "ratio"},
	{"lifecycle.created", "count"},
	{"lifecycle.evicted", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.gen_late_p99_us", "us"},
	{"bench.residual_ns", "ns"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// report fills r with either set in its fixed order, taking values from
// vals; a missing end-to-end value is an error in the workload, a missing
// per-layer value means the layer is not exercised.
func report(r *result, trace bool, vals map[string]float64) {
	set := e2eUnits
	if trace {
		set = layerUnits
	}
	for _, m := range set {
		v, ok := vals[m.name]
		if !ok && !trace {
			r.failf("workload did not measure %s", m.name)
			v = math.NaN()
		}
		r.add(m.name, m.unit, v)
	}
}

// roundFigures collects the wall-clock figures of a run's rounds; the run
// reports their medians.
type roundFigures struct {
	setup, wall, cpu, allocs, heapMB []float64
}

// addRound records one round: its set-up time, its timed phase (the
// per-item wall and CPU time of every chunk the phase's clock recorded),
// and its live heap.
func (f *roundFigures) addRound(setupS float64, ph *phase, ck *chunkClock, items int64, heapBytes uint64) {
	f.setup = append(f.setup, setupS)
	f.wall = append(f.wall, ck.wall...)
	f.cpu = append(f.cpu, ck.cpu...)
	f.allocs = append(f.allocs, float64(ph.mallocs)/float64(items))
	f.heapMB = append(f.heapMB, float64(heapBytes)/(1<<20))
}

// into writes the medians of the wall-clock figures.
func (f *roundFigures) into(vals map[string]float64) {
	vals["setup_s"] = median(f.setup)
	vals["throughput_per_s"] = 1 / median(f.wall)
	vals["cpu_us_per_item"] = median(f.cpu) * 1e6
	vals["allocs_per_item"] = median(f.allocs)
	vals["live_heap_mb"] = median(f.heapMB)
}

// chunkClock times a phase in chunks of about every items, so a run
// reports the median chunk: a stall on the shared host slows a few
// chunks, not the median.
type chunkClock struct {
	every, next, last int64
	t0                time.Time
	cpu0              time.Duration
	wall, cpu         []float64 // seconds per item, one entry per chunk
}

// newChunkClock starts timing chunks of every items; done is the item
// count at the start.
func newChunkClock(every, done int64) *chunkClock {
	return &chunkClock{every: every, next: done + every, last: done, t0: time.Now(), cpu0: processCPU()}
}

// tick records a chunk once done items have completed since the start.
func (c *chunkClock) tick(done int64) {
	if c == nil || done < c.next {
		return
	}
	c.record(done)
}

// flush records the items since the last chunk at the end of the phase,
// if they make at least half a chunk or no chunk was recorded at all.
func (c *chunkClock) flush(done int64) {
	if done > c.last && (len(c.wall) == 0 || 2*(done-c.last) >= c.every) {
		c.record(done)
	}
}

func (c *chunkClock) record(done int64) {
	now, cpu := time.Now(), processCPU()
	n := float64(done - c.last)
	c.wall = append(c.wall, now.Sub(c.t0).Seconds()/n)
	c.cpu = append(c.cpu, (cpu-c.cpu0).Seconds()/n)
	c.t0, c.cpu0, c.last, c.next = now, cpu, done, done+c.every
}
