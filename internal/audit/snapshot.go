package audit

import (
	"sort"
	"time"

	"github.com/netsched/hfsc/internal/curve"
)

// ClassAudit is one class's guarantee verdict: cumulative check and
// violation counters with per-cause attribution, the conformance margin
// (windowed and all-time minima), the observed-vs-advertised delay
// extremes, and the multi-resolution burn rates the verdict is derived
// from.
type ClassAudit struct {
	ID   int
	Name string
	// Guaranteed reports whether the class carries a real-time curve —
	// only guaranteed classes get deadline and margin checks; the others
	// accumulate only drop violations.
	Guaranteed bool

	// Checks counts audited guarantee decisions (one per served packet of
	// a guaranteed class, one per drop, one per stalled-backlog probe);
	// Violations is the sum of ViolationsByCause.
	Checks     uint64
	Violations uint64
	// ViolationsByCause attributes every violation, indexed by Cause.
	ViolationsByCause [CauseCount]uint64

	// MinMarginNs is the minimum conformance margin over the sliding
	// window (ns of headroom between the fluid deadline — plus allowance —
	// and the actual departure; negative = lateness). MinMarginEverNs is
	// the all-time minimum. curve.Inf when the class has no samples.
	MinMarginNs     int64
	MinMarginEverNs int64

	// WorstLateNs is the worst genuine lateness (scheduler or upper-limit
	// attributed) past the allowance. DelayMaxNs is the worst observed
	// per-packet delay and DelayBoundNs the advertised fluid-SCED bound
	// it is compared against (Inverse(burst) + lmax/R).
	WorstLateNs  int64
	DelayMaxNs   int64
	DelayBoundNs int64

	// NonConformingPeriods counts busy periods whose arrivals exceeded
	// the curve's envelope (no guarantee owed for the excess);
	// Corrections counts completion corrections folded into the service
	// accounts; RTDeadlineMisses corroborates with the scheduler's own
	// EvDeadlineMiss count.
	NonConformingPeriods uint64
	Corrections          uint64
	RTDeadlineMisses     uint64

	// Burn rates: the fraction of checks that were violations over the
	// trailing 1 s / 30 s / 5 m windows (0 when no checks landed there).
	BurnRate1s  float64
	BurnRate30s float64
	BurnRate5m  float64

	// Verdict summarizes the above; see Verdict.
	Verdict Verdict
}

// Snapshot is a point-in-time copy of every audited class.
type Snapshot struct {
	// Now is the auditor clock of the newest event folded in.
	Now int64
	// UlimitDefers counts link-level upper-limit deferral events seen.
	UlimitDefers uint64
	// Classes holds one entry per live class that produced events, in
	// class id order. Removed classes are forgotten.
	Classes []ClassAudit
}

// Class returns the audit entry for the class with the given id.
func (s *Snapshot) Class(id int) (ClassAudit, bool) {
	for i := range s.Classes {
		if s.Classes[i].ID == id {
			return s.Classes[i], true
		}
	}
	return ClassAudit{}, false
}

// Verdict is the merged link verdict: the worst class verdict.
func (s *Snapshot) Verdict() Verdict {
	v := VerdictOK
	for i := range s.Classes {
		if cv := s.Classes[i].Verdict; cv > v {
			v = cv
		}
	}
	return v
}

// Snapshot copies the current state. Safe from any goroutine, in
// particular while the scheduling goroutine keeps feeding events. It
// runs a Tick first so stalled backlogs are current as of the snapshot.
// It costs two allocations whatever the class count: the Snapshot and
// its class slab.
func (a *Auditor) Snapshot() *Snapshot {
	a.mu.Lock()
	now := a.lastEvent
	a.mu.Unlock()
	a.Tick(now)
	a.mu.Lock()
	defer a.mu.Unlock()
	out := &Snapshot{Now: a.lastEvent, UlimitDefers: a.ulimitDefers}
	live := 0
	for _, st := range a.classes {
		if st != nil {
			live++
		}
	}
	if live == 0 {
		return out
	}
	out.Classes = make([]ClassAudit, 0, live)
	for _, st := range a.classes {
		if st != nil {
			out.Classes = append(out.Classes, a.snapClass(st))
		}
	}
	return out
}

// ClassSnapshot copies one class's audit state (zero, false if the class
// has produced no events yet).
func (a *Auditor) ClassSnapshot(id int) (ClassAudit, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id < 0 || id >= len(a.classes) || a.classes[id] == nil {
		return ClassAudit{}, false
	}
	return a.snapClass(a.classes[id]), true
}

func (a *Auditor) snapClass(st *classAudit) ClassAudit {
	c := ClassAudit{
		ID:                   st.id,
		Name:                 st.name,
		Guaranteed:           st.hasRT,
		Checks:               st.checks,
		ViolationsByCause:    st.viols,
		MinMarginNs:          curve.Inf,
		MinMarginEverNs:      st.minMargin,
		WorstLateNs:          st.worstLateNs,
		DelayMaxNs:           st.delayMaxNs,
		NonConformingPeriods: st.badStart,
		Corrections:          st.corrs,
		RTDeadlineMisses:     st.misses,
	}
	for _, v := range st.viols {
		c.Violations += v
	}
	if st.hasRT {
		c.DelayBoundNs = st.delayBound(a)
	}
	if st.rings == nil { // never checked: no margin, no burn
		c.Verdict = verdictOf(&c)
		return c
	}
	nowSec := a.lastEvent / int64(time.Second)
	for i := range st.rings.margins {
		sl := &st.rings.margins[i]
		if st.hasMargin && sl.key > 0 && nowSec-(sl.key-1) < marginSlots {
			if sl.min < c.MinMarginNs {
				c.MinMarginNs = sl.min
			}
		}
	}
	var c1, v1, c30, v30, c300, v300 uint64
	for i := range st.rings.burn {
		sl := &st.rings.burn[i]
		if sl.key == 0 || sl.checks == 0 {
			continue
		}
		age := nowSec - (sl.key - 1)
		if age < 0 || age >= burnSeconds {
			continue
		}
		c300 += uint64(sl.checks)
		v300 += uint64(sl.viols)
		if age < 30 {
			c30 += uint64(sl.checks)
			v30 += uint64(sl.viols)
		}
		if age < 1 {
			c1 += uint64(sl.checks)
			v1 += uint64(sl.viols)
		}
	}
	c.BurnRate1s = burnFrac(v1, c1)
	c.BurnRate30s = burnFrac(v30, c30)
	c.BurnRate5m = burnFrac(v300, c300)
	c.Verdict = verdictOf(&c)
	return c
}

func burnFrac(v, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// verdictOf derives a class verdict: violations in the last 30 s mean
// the guarantee is being broken now; violations within 5 m, or a
// windowed margin that dipped below the tolerance, mean it held with no
// headroom.
func verdictOf(c *ClassAudit) Verdict {
	switch {
	case c.BurnRate30s > 0:
		return VerdictViolated
	case c.BurnRate5m > 0,
		c.Guaranteed && c.MinMarginNs != curve.Inf && c.MinMarginNs < tolerance:
		return VerdictAtRisk
	default:
		return VerdictOK
	}
}

// Merge folds per-shard snapshots into one, for drivers that run several
// schedulers side by side (a multi-shard PacedQueue) — the audit analogue of
// metrics.MergeSnapshots. Link-level counters sum, the clock is the
// newest across shards, and class entries — disjoint between shards —
// are concatenated with ids translated by remap (shard index, local id)
// → (merged id, keep); returning ok=false drops the entry. Nil snapshots
// are skipped; a nil remap keeps local ids. Like Snapshot, it costs a
// constant number of allocations.
func Merge(snaps []*Snapshot, remap func(shard, id int) (int, bool)) *Snapshot {
	out := &Snapshot{}
	n := 0
	for _, s := range snaps {
		if s != nil {
			n += len(s.Classes)
		}
	}
	if n > 0 {
		out.Classes = make([]ClassAudit, 0, n)
	}
	for i, s := range snaps {
		if s == nil {
			continue
		}
		if s.Now > out.Now {
			out.Now = s.Now
		}
		out.UlimitDefers += s.UlimitDefers
		for _, c := range s.Classes {
			if remap != nil {
				id, ok := remap(i, c.ID)
				if !ok {
					continue
				}
				c.ID = id
			}
			out.Classes = append(out.Classes, c)
		}
	}
	if len(out.Classes) == 0 {
		out.Classes = nil
	}
	sort.Slice(out.Classes, func(a, b int) bool { return out.Classes[a].ID < out.Classes[b].ID })
	return out
}
