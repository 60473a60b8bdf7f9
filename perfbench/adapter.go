package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"time"

	"github.com/netsched/hfsc"
	"github.com/netsched/hfsc/hfscmw"
)

// Every call a workload makes into hfsc.Scheduler, hfsc.PacedQueue or
// hfscmw.Limiter while it is being measured goes through these wrappers,
// which time the call into a span when the workload runs traced (a non-nil
// lane) and cost one nil check otherwise. A change to the public submit or
// admin surface edits this file and the workloads' set-up, not their
// measured loops.

// coreLink drives an unpaced hfsc.Scheduler: the caller plays the link.
type coreLink struct {
	s  *hfsc.Scheduler
	tr *lane
}

func (c coreLink) offer(p *hfsc.Packet, now int64) hfsc.DropReason {
	sp := c.tr.begin(spOffer, p.Seq)
	r := c.s.Offer(p, now)
	c.tr.end(sp)
	return r
}

func (c coreLink) dequeue(now int64, max int, out []*hfsc.Packet) []*hfsc.Packet {
	sp := c.tr.begin(spDequeue, 0)
	out = c.s.DequeueN(now, max, out)
	c.tr.end(sp)
	return out
}

func (c coreLink) nextReady(now int64) (int64, bool) {
	sp := c.tr.begin(spNextReady, 0)
	t, ok := c.s.NextReady(now)
	c.tr.end(sp)
	return t, ok
}

// shaperLink is the producer side of an hfsc.PacedQueue plus the
// operator's telemetry poll.
type shaperLink struct {
	q      *hfsc.PacedQueue
	tr     *lane
	buf    bytes.Buffer
	flight []hfsc.FlightRecord
	cursor uint64
}

func (s *shaperLink) submitN(ps []*hfsc.Packet) (int, hfsc.DropReason) {
	sp := s.tr.begin(spSubmit, ps[0].Seq)
	n, r := s.q.SubmitN(ps)
	s.tr.end(sp)
	return n, r
}

// scrape is one /metrics-style poll: the Prometheus exposition, the audit
// verdicts and the flight-recorder events since the previous poll.
func (s *shaperLink) scrape() error {
	sp := s.tr.begin(spScrape, 0)
	defer s.tr.end(sp)
	if err := pollTelemetry(s.tr, s.q, &s.buf); err != nil {
		return err
	}
	f := s.tr.begin(spFlightRead, 0)
	s.flight, s.cursor = s.q.FlightRecorder().ReadSince(s.cursor, s.flight[:0])
	s.tr.end(f)
	return nil
}

// telemetry is the operator-facing surface PacedQueue and Limiter share.
type telemetry interface {
	WriteMetrics(io.Writer) error
	AuditSnapshot() *hfsc.AuditSnapshot
}

// pollTelemetry renders the Prometheus exposition into buf and takes the
// audit verdicts, each in its own span under the caller's scrape span.
func pollTelemetry(tr *lane, t telemetry, buf *bytes.Buffer) error {
	buf.Reset()
	w := tr.begin(spWriteMetrics, 0)
	err := t.WriteMetrics(buf)
	tr.end(w)
	if err != nil {
		return err
	}
	a := tr.begin(spAuditSnap, 0)
	snap := t.AuditSnapshot()
	tr.end(a)
	if snap == nil {
		return errNoAudit
	}
	return nil
}

// mwLink calls an hfscmw.Limiter. Admit and Finish run on per-request
// goroutines, so each call takes the request's own lane.
type mwLink struct {
	l   *hfscmw.Limiter
	buf bytes.Buffer
}

func (m *mwLink) addTenant(tr *lane, name string, slo hfscmw.SLO) (bool, error) {
	sp := tr.begin(spAddTenant, 0)
	g, err := m.l.AddTenant(name, slo)
	tr.end(sp)
	return g, err
}

func (m *mwLink) admit(tr *lane, ctx context.Context, tenant, op string, item uint64) (*hfscmw.Ticket, error) {
	sp := tr.begin(spAdmit, item)
	tk, err := m.l.Admit(ctx, tenant, op)
	tr.end(sp)
	return tk, err
}

func (m *mwLink) finish(tr *lane, tk *hfscmw.Ticket, actual time.Duration, item uint64) {
	sp := tr.begin(spFinish, item)
	tk.Finish(actual)
	tr.end(sp)
}

// scrape is one /metrics-style poll of the limiter.
func (m *mwLink) scrape(tr *lane) error {
	sp := tr.begin(spScrape, 0)
	defer tr.end(sp)
	return pollTelemetry(tr, m.l, &m.buf)
}

// liveClasses counts the limiter's classes and returns the largest class
// id; ids are never reused, so the id advance over a run counts the
// tenant classes the lifecycle created.
func (m *mwLink) liveClasses() (n, maxID int) {
	m.l.Inspect(func(s *hfsc.Scheduler) {
		for _, c := range s.Classes() {
			n++
			maxID = max(maxID, c.ID())
		}
	})
	return n, maxID
}

// close stops the limiter and reports the ledger rows it still holds.
func (m *mwLink) close() []hfscmw.Entry {
	m.l.Close()
	return m.l.Ledger().Entries()
}

var errNoAudit = errors.New("audit snapshot is nil: auditing is off")
