package hfsc

import "github.com/netsched/hfsc/internal/audit"

// AuditSnapshot is a point-in-time copy of the online guarantee auditor's
// verdicts: per-class conformance checks, attributed violations, margin
// minima, delay extremes and burn rates. Obtain one with
// Scheduler.AuditSnapshot (or PacedQueue/MultiQueue.AuditSnapshot); it is
// also attached to the metrics snapshot as Snapshot.Audit.
type AuditSnapshot = audit.Snapshot

// ClassAudit is one class's slice of an AuditSnapshot.
type ClassAudit = audit.ClassAudit

// AuditVerdict is a class's (or the whole link's) guarantee health:
// VerdictOK, VerdictAtRisk or VerdictViolated.
type AuditVerdict = audit.Verdict

// Audit verdicts, re-exported from the auditor.
const (
	// VerdictOK: no violations in the burn windows and healthy margin.
	VerdictOK = audit.VerdictOK
	// VerdictAtRisk: violations within the last 5 minutes, or the
	// conformance margin dipped below the tolerance.
	VerdictAtRisk = audit.VerdictAtRisk
	// VerdictViolated: violations within the last 30 seconds.
	VerdictViolated = audit.VerdictViolated
)

// AuditCause attributes one guarantee violation; see the Cause* constants.
type AuditCause = audit.Cause

// Violation causes, re-exported from the auditor (index
// ClassAudit.ViolationsByCause with these).
const (
	// CauseSchedulerLate: conforming arrivals, nothing else to blame — the
	// scheduler itself delivered service later than the curve owed.
	CauseSchedulerLate = audit.CauseSchedulerLate
	// CauseNonConformingArrival: the sender exceeded its curve's arrival
	// envelope, so the advertised bound was not owed.
	CauseNonConformingArrival = audit.CauseNonConformingArrival
	// CauseUlimitDefer: an upper-limit curve deferred service during the
	// busy period.
	CauseUlimitDefer = audit.CauseUlimitDefer
	// CauseDrop: the packet was refused (queue limit / intake), so the
	// guarantee was broken by loss rather than lateness.
	CauseDrop = audit.CauseDrop
	// CauseCostCorrection: completion corrections re-charged the class, so
	// deadlines were computed from mis-estimated costs.
	CauseCostCorrection = audit.CauseCostCorrection
	// CauseCount bounds the causes (length of ViolationsByCause).
	CauseCount = audit.CauseCount
)

// AuditJSON is the JSON wire form of an AuditSnapshot, as served by the
// /debug/hfsc/audit endpoint in examples/hfsc-serve and consumed by
// hfsc-top's verdict column.
type AuditJSON = audit.SnapshotJSON

// AuditClassJSON is one class's slice of an AuditJSON.
type AuditClassJSON = audit.ClassJSON

// AuditSnapshotJSON converts an audit snapshot to its JSON wire form.
// Nil-safe: a nil snapshot renders as an empty "ok" snapshot.
func AuditSnapshotJSON(s *AuditSnapshot) AuditJSON { return audit.ToJSON(s) }

// AuditSnapshot copies the auditor's current verdicts. It returns nil when
// the scheduler was created without Config.Audit. Safe to call
// concurrently with the scheduling goroutine.
func (s *Scheduler) AuditSnapshot() *AuditSnapshot {
	if s.aud == nil {
		return nil
	}
	return s.aud.Snapshot()
}

// ClassAudit returns this class's slice of the audit snapshot. The zero
// ClassAudit is returned when auditing is disabled, the class has not
// produced any events yet, or it has been removed (see Class.Metrics).
func (c *Class) ClassAudit() ClassAudit {
	if c.sched.aud == nil {
		return ClassAudit{}
	}
	ca, _ := c.sched.aud.ClassSnapshot(c.c.ID())
	return ca
}

// SetAuditBurst pins the arrival-conformance burst allowance for a class
// (in cost units), e.g. an SLO's advertised burst. Without it the
// allowance tracks the largest single work unit the class has submitted.
// A no-op when auditing is disabled.
func (s *Scheduler) SetAuditBurst(classID int, burst int64) {
	if s.aud != nil {
		s.aud.SetBurst(classID, burst)
	}
}

// auditTick drives the auditor's stalled-backlog probe; drivers call it
// from their pacing loop so a class whose service stops entirely still
// fails checks while it starves. Staged events are published first, so the
// probe sees every arrival up to now.
func (s *Scheduler) auditTick(now int64) {
	if s.aud != nil {
		s.publish()
		s.aud.Tick(now)
	}
}
