package metrics

import (
	"io"
	"slices"
	"strconv"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/curve"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Durations are converted from the scheduler's
// nanosecond clock to seconds, rates stay in bytes per second. Classes are
// labelled by name; dequeue criteria appear as crit="rt"/"ls" so the
// link-sharing/real-time split the paper's decoupling argument rests on is
// visible per class.
//
// The exposition is built in one chunk-sized buffer, written out
// whenever it fills, so no exposition-sized buffer is ever held. Class
// labels are escaped into one arena per scrape and each bucket set's le
// labels are rendered once per scrape, so a scrape costs a constant
// number of allocations whatever the class count, never one per class or
// sample line.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	e := &expo{w: w, b: make([]byte, 0, expoChunk)}
	cls := classLabels(len(s.Classes), func(i int) string { return s.Classes[i].Name })

	e.family("hfsc_enqueued_packets_total", "counter",
		"Packets accepted into a leaf queue.")
	for i := range s.Classes {
		e.sample("hfsc_enqueued_packets_total", cls[i], "", float64(s.Classes[i].EnqueuedPackets))
	}

	e.family("hfsc_sent_packets_total", "counter",
		"Packets dequeued, by class and selection criterion (rt = real-time, ls = link-sharing).")
	for i := range s.Classes {
		c := &s.Classes[i]
		e.sample("hfsc_sent_packets_total", cls[i], `crit="rt"`, float64(c.SentPacketsRT))
		e.sample("hfsc_sent_packets_total", cls[i], `crit="ls"`, float64(c.SentPacketsLS))
	}

	e.family("hfsc_sent_bytes_total", "counter",
		"Bytes dequeued, by class and selection criterion.")
	for i := range s.Classes {
		c := &s.Classes[i]
		e.sample("hfsc_sent_bytes_total", cls[i], `crit="rt"`, float64(c.SentBytesRT))
		e.sample("hfsc_sent_bytes_total", cls[i], `crit="ls"`, float64(c.SentBytesLS))
	}

	e.family("hfsc_drops_total", "counter",
		"Packets dropped at a full leaf queue.")
	for i := range s.Classes {
		e.sample("hfsc_drops_total", cls[i], `reason="queue_limit"`, float64(s.Classes[i].DropsQueueLimit))
	}

	e.family("hfsc_enqueue_rejects_total", "counter",
		"Packets refused before reaching a leaf queue.")
	e.sample("hfsc_enqueue_rejects_total", nil, `reason="unknown_class"`, float64(s.DropsUnknownClass))
	e.sample("hfsc_enqueue_rejects_total", nil, `reason="bad_packet"`, float64(s.DropsBadPacket))
	e.sample("hfsc_enqueue_rejects_total", nil, `reason="intake_full"`, float64(s.DropsIntakeFull))
	e.sample("hfsc_enqueue_rejects_total", nil, `reason="stopped"`, float64(s.DropsStopped))

	e.family("hfsc_deadline_misses_total", "counter",
		"Real-time dequeues that departed after their service-curve deadline.")
	for i := range s.Classes {
		e.sample("hfsc_deadline_misses_total", cls[i], "", float64(s.Classes[i].DeadlineMisses))
	}

	e.family("hfsc_activations_total", "counter",
		"Transitions of a class from passive to active.")
	for i := range s.Classes {
		e.sample("hfsc_activations_total", cls[i], "", float64(s.Classes[i].Activations))
	}

	e.family("hfsc_corrections_total", "counter",
		"Completion corrections applied per class (actual cost reconciled against the estimate).")
	for i := range s.Classes {
		e.sample("hfsc_corrections_total", cls[i], "", float64(s.Classes[i].Corrections))
	}

	e.family("hfsc_corrected_cost_units", "gauge",
		"Signed sum of applied correction deltas per class, in cost units (positive = work charged after the fact).")
	for i := range s.Classes {
		e.sample("hfsc_corrected_cost_units", cls[i], "", float64(s.Classes[i].CorrectedCost))
	}

	e.family("hfsc_ulimit_defers_total", "counter",
		"Dequeue attempts refused because every active class was deferred by an upper-limit curve.")
	e.sample("hfsc_ulimit_defers_total", nil, "", float64(s.UlimitDefers))

	e.family("hfsc_queue_packets", "gauge", "Packets currently queued per class.")
	for i := range s.Classes {
		e.sample("hfsc_queue_packets", cls[i], "", float64(s.Classes[i].QueuedPackets))
	}

	e.family("hfsc_queue_bytes", "gauge", "Bytes currently queued per class.")
	for i := range s.Classes {
		e.sample("hfsc_queue_bytes", cls[i], "", float64(s.Classes[i].QueuedBytes))
	}

	e.family("hfsc_service_rate_bytes_per_second", "gauge",
		"EWMA service rate per class; crit=\"all\" covers both criteria, crit=\"rt\" real-time service only.")
	for i := range s.Classes {
		c := &s.Classes[i]
		e.sample("hfsc_service_rate_bytes_per_second", cls[i], `crit="all"`, c.RateBps)
		e.sample("hfsc_service_rate_bytes_per_second", cls[i], `crit="rt"`, c.RateRTBps)
	}

	e.family("hfsc_deadline_slack_seconds", "histogram",
		"Deadline minus departure time for real-time dequeues; negative buckets are misses.")
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.DeadlineSlack.Count == 0 && !c.Leaf {
			continue
		}
		e.histogram("hfsc_deadline_slack_seconds", cls[i], "", c.DeadlineSlack)
	}

	e.family("hfsc_queue_delay_seconds", "histogram",
		"Time from enqueue to dequeue per class.")
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.QueueDelay.Count == 0 && !c.Leaf {
			continue
		}
		e.histogram("hfsc_queue_delay_seconds", cls[i], "", c.QueueDelay)
	}

	e.family("hfsc_spans_sampled_total", "counter",
		"Packet-lifecycle spans folded into the latency decomposition (1-in-N sampled).")
	e.sample("hfsc_spans_sampled_total", nil, "", float64(s.SpansSampled))

	e.family("hfsc_span_seconds", "histogram",
		"Sampled per-packet latency decomposition by stage: intake_wait (submit to intake drain), queue (enqueue to dequeue and transmit).")
	if s.SpanIntakeWait.Counts != nil {
		e.histogram("hfsc_span_seconds", nil, `stage="intake_wait"`, s.SpanIntakeWait)
	}
	if s.SpanQueueDelay.Counts != nil {
		e.histogram("hfsc_span_seconds", nil, `stage="queue"`, s.SpanQueueDelay)
	}

	e.family("hfsc_flight_records_total", "counter",
		"Events written to the flight recorder rings.")
	e.sample("hfsc_flight_records_total", nil, "", float64(s.FlightRecorded))

	e.family("hfsc_flight_dropped_total", "counter",
		"Flight-recorder records overwritten by ring wrap before the window closed.")
	e.sample("hfsc_flight_dropped_total", nil, "", float64(s.FlightDropped))

	if s.Audit != nil {
		e.guarantees(s.Audit)
	}

	e.flush()
	return e.err
}

// guarantees renders the online guarantee auditor's verdicts as the
// hfsc_guarantee_* families. Only present when auditing is enabled.
func (e *expo) guarantees(a *audit.Snapshot) {
	cls := classLabels(len(a.Classes), func(i int) string { return a.Classes[i].Name })

	e.family("hfsc_guarantee_checks_total", "counter",
		"Guarantee checks performed by the online auditor (one per served packet of a guaranteed class, per drop, and per stalled-backlog probe).")
	for i := range a.Classes {
		e.sample("hfsc_guarantee_checks_total", cls[i], "", float64(a.Classes[i].Checks))
	}

	e.family("hfsc_guarantee_violations_total", "counter",
		"Guarantee violations, attributed by cause: scheduler-late (genuine lateness), nonconforming-arrival (sender over its curve), ulimit-defer, drop, cost-correction.")
	for i := range a.Classes {
		c := &a.Classes[i]
		for j := range c.ViolationsByCause {
			e.sample("hfsc_guarantee_violations_total", cls[i], causeLabels[j], float64(c.ViolationsByCause[j]))
		}
	}

	e.family("hfsc_guarantee_margin_min_seconds", "gauge",
		"Minimum conformance margin over the sliding window: headroom between the fluid service-curve deadline (plus allowance) and actual departure; negative = lateness. Absent until a guaranteed class is served.")
	for i := range a.Classes {
		c := &a.Classes[i]
		if !c.Guaranteed || c.MinMarginNs == curve.Inf {
			continue
		}
		e.sample("hfsc_guarantee_margin_min_seconds", cls[i], "", float64(c.MinMarginNs)/1e9)
	}

	e.family("hfsc_guarantee_delay_seconds", "gauge",
		"Per-packet delay versus the advertised fluid-SCED bound: kind=\"max\" is the worst observed arrival-to-dequeue delay, kind=\"bound\" the bound it is audited against.")
	for i := range a.Classes {
		c := &a.Classes[i]
		if !c.Guaranteed {
			continue
		}
		e.sample("hfsc_guarantee_delay_seconds", cls[i], `kind="max"`, float64(c.DelayMaxNs)/1e9)
		if c.DelayBoundNs > 0 && c.DelayBoundNs < curve.Inf {
			e.sample("hfsc_guarantee_delay_seconds", cls[i], `kind="bound"`, float64(c.DelayBoundNs)/1e9)
		}
	}

	e.family("hfsc_guarantee_burn_rate", "gauge",
		"Fraction of guarantee checks that were violations over the trailing window (SLO burn rate).")
	for i := range a.Classes {
		c := &a.Classes[i]
		e.sample("hfsc_guarantee_burn_rate", cls[i], `window="1s"`, c.BurnRate1s)
		e.sample("hfsc_guarantee_burn_rate", cls[i], `window="30s"`, c.BurnRate30s)
		e.sample("hfsc_guarantee_burn_rate", cls[i], `window="5m"`, c.BurnRate5m)
	}

	e.family("hfsc_guarantee_nonconforming_periods_total", "counter",
		"Busy periods whose arrivals exceeded the class's service-curve envelope (no guarantee owed for the excess).")
	for i := range a.Classes {
		e.sample("hfsc_guarantee_nonconforming_periods_total", cls[i], "", float64(a.Classes[i].NonConformingPeriods))
	}

	e.family("hfsc_guarantee_verdict", "gauge",
		"Guarantee health per class: 0 = ok, 1 = at risk, 2 = violated.")
	for i := range a.Classes {
		e.sample("hfsc_guarantee_verdict", cls[i], "", float64(a.Classes[i].Verdict))
	}
}

// expoChunk is the exposition buffer's size. It is written out once it
// is within expoLine bytes of full, so a line longer than that (only a
// class name of kilobytes) is all that can make it regrow.
const (
	expoChunk = 32 << 10
	expoLine  = 4 << 10
)

// causeLabels holds the cause="…" label of each violation cause.
var causeLabels = func() (l [audit.CauseCount]string) {
	for i := range l {
		l[i] = string(appendLabel(nil, "cause", audit.Cause(i).String()))
	}
	return l
}()

// expo accumulates one exposition and writes it out chunk by chunk.
type expo struct {
	w   io.Writer
	b   []byte
	err error   // the first failed Write; later chunks are discarded
	les []leSet // le labels of the bucket sets seen this scrape
}

// leSet is one histogram bucket set's rendered le="…" labels.
type leSet struct {
	bounds []int64
	le     [][]byte
}

// room writes the buffer out when it is near full; each line calls it
// first.
func (e *expo) room() {
	if len(e.b) > expoChunk-expoLine {
		e.flush()
	}
}

func (e *expo) flush() {
	if e.err == nil && len(e.b) > 0 {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *expo) family(name, typ, help string) {
	e.room()
	e.b = append(e.b, "# HELP "...)
	e.b = append(e.b, name...)
	e.b = append(e.b, ' ')
	e.b = append(e.b, help...)
	e.b = append(e.b, "\n# TYPE "...)
	e.b = append(e.b, name...)
	e.b = append(e.b, ' ')
	e.b = append(e.b, typ...)
	e.b = append(e.b, '\n')
}

// sample appends one `name{cls,extra} v` line; cls is a pre-escaped class
// label and extra a constant label pair, either of which may be empty.
func (e *expo) sample(name string, cls []byte, extra string, v float64) {
	e.room()
	e.b = append(e.b, name...)
	e.labels(cls, extra, nil)
	e.b = append(e.b, ' ')
	e.b = strconv.AppendFloat(e.b, v, 'g', -1, 64)
	e.b = append(e.b, '\n')
}

// histogram renders one histogram as cumulative le-buckets (bounds
// converted ns→s) ending in le="+Inf", plus _sum and _count.
func (e *expo) histogram(name string, cls []byte, extra string, h HistogramSnapshot) {
	le := e.leLabels(h.Bounds)
	var cum uint64
	for i := range h.Bounds {
		cum += h.Counts[i]
		e.bucket(name, cls, extra, le[i], cum)
	}
	if len(h.Counts) > 0 {
		cum += h.Counts[len(h.Counts)-1]
	}
	e.bucket(name, cls, extra, leInf, cum)
	e.room()
	e.b = append(e.b, name...)
	e.b = append(e.b, "_sum"...)
	e.labels(cls, extra, nil)
	e.b = append(e.b, ' ')
	e.b = strconv.AppendFloat(e.b, float64(h.Sum)/1e9, 'g', -1, 64)
	e.b = append(e.b, '\n')
	e.b = append(e.b, name...)
	e.b = append(e.b, "_count"...)
	e.labels(cls, extra, nil)
	e.b = append(e.b, ' ')
	e.b = strconv.AppendUint(e.b, h.Count, 10)
	e.b = append(e.b, '\n')
}

var leInf = []byte(`le="+Inf"`)

func (e *expo) bucket(name string, cls []byte, extra string, le []byte, cum uint64) {
	e.room()
	e.b = append(e.b, name...)
	e.b = append(e.b, "_bucket"...)
	e.labels(cls, extra, le)
	e.b = append(e.b, ' ')
	e.b = strconv.AppendUint(e.b, cum, 10)
	e.b = append(e.b, '\n')
}

// labels appends the non-empty label pairs, comma-separated in braces
// (nothing at all when every pair is empty).
func (e *expo) labels(cls []byte, extra string, le []byte) {
	if len(cls) == 0 && extra == "" && len(le) == 0 {
		return
	}
	e.b = append(e.b, '{')
	e.b = append(e.b, cls...)
	if len(cls) > 0 && extra != "" {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, extra...)
	if len(le) > 0 {
		if len(cls) > 0 || extra != "" {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, le...)
	}
	e.b = append(e.b, '}')
}

// leLabels returns the le="…" label of every bound in a bucket set,
// rendered once per scrape.
func (e *expo) leLabels(bounds []int64) [][]byte {
	for _, s := range e.les {
		if slices.Equal(s.bounds, bounds) {
			return s.le
		}
	}
	s := newLeSet(bounds)
	e.les = append(e.les, s)
	return s.le
}

func newLeSet(bounds []int64) leSet {
	le := make([][]byte, len(bounds))
	// Room for typical labels up front; a regrow leaves the earlier
	// labels on the old array, where they stay valid.
	arena := make([]byte, 0, 24*len(bounds))
	for i, b := range bounds {
		start := len(arena)
		arena = append(arena, `le="`...)
		arena = strconv.AppendFloat(arena, float64(b)/1e9, 'g', -1, 64)
		arena = append(arena, '"')
		le[i] = arena[start:len(arena):len(arena)]
	}
	return leSet{bounds, le}
}

// classLabels returns each class's class="…" label, escaped into one
// arena sized up front (escaping at most doubles a byte), so the whole
// set costs two allocations.
func classLabels(n int, name func(i int) string) [][]byte {
	out := make([][]byte, n)
	size := 0
	for i := range out {
		size += len(`class=""`) + 2*len(name(i))
	}
	arena := make([]byte, 0, size)
	for i := range out {
		start := len(arena)
		arena = appendLabel(arena, "class", name(i))
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// appendLabel appends one name="value" pair, escaping the value per the
// exposition format (backslash, double quote, newline).
func appendLabel(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, `="`...)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
