package hfsc

import (
	"fmt"
	"strings"
	"time"
)

// ClassTemplate describes how to auto-create leaf classes on demand and
// when to garbage-collect them again. Install one as Config.AutoClass (it
// then matches every unknown name) or via SetTemplate with a name prefix;
// the longest matching prefix wins when several templates are registered.
//
// Auto-created classes go through the same AddClass path as explicit ones
// and are indistinguishable afterwards: same curves, same counters, same
// position in the hierarchy. A template with Grace > 0 additionally
// enrolls its classes in idle collection — see CollectIdle for the
// lifecycle (active → idle → grace elapsed → collected).
type ClassTemplate struct {
	// Parent names the class new leaves are created under; "" means the
	// link root. The parent must exist when the first leaf is created.
	Parent string
	// Class is the curve set for created leaves, used when Make is nil.
	Class ClassConfig
	// Make, when set, chooses the configuration per class name (e.g. a
	// per-tenant rate from an SLO table). Returning false refuses the
	// name: EnsureClass fails with ErrUnknownTemplate and nothing is
	// created. Make runs on the goroutine performing the create — under a
	// PacedQueue that is the pacing goroutine, so it must not block.
	Make func(name string) (ClassConfig, bool)
	// Grace is how long a created class may sit idle (empty queue, no
	// packets served or dropped since the last scan) before CollectIdle
	// removes it. Zero disables collection: classes live until removed
	// explicitly.
	Grace time.Duration
	// OnCollect, when set, is invoked after an idle class has been
	// removed, with its name and retired id. Under a PacedQueue it runs on
	// the pacing goroutine: keep it short and never have it wait on a
	// goroutine that may itself be waiting on this queue (Inspect,
	// admin calls), or the queue deadlocks.
	OnCollect func(name string, id int)
}

// tplRule is one registered template; rules are matched by longest prefix.
type tplRule struct {
	prefix string
	tpl    ClassTemplate
}

// lcEntry tracks one collectable class. Activity is detected by delta on
// the served+dropped counters between scans, plus queue occupancy — no
// timestamp is taken on the hot path; idle time is measured in scan
// observations.
type lcEntry struct {
	cl        *Class
	grace     int64  // ns of observed idleness before collection
	seen      uint64 // SentPackets+Dropped at the last scan
	idleSince int64  // clock of the first scan that saw the class idle
	onCollect func(name string, id int)
}

// SetTemplate registers (or replaces) the class template for names with
// the given prefix. The empty prefix matches every name, exactly like
// Config.AutoClass; among several templates the longest matching prefix
// wins. Like every Scheduler method this must be serialized with the
// scheduling calls — on a running PacedQueue use its SetTemplate, which
// routes through the pacing goroutines.
func (s *Scheduler) SetTemplate(prefix string, tpl ClassTemplate) {
	for i := range s.tpls {
		if s.tpls[i].prefix == prefix {
			s.tpls[i].tpl = tpl
			return
		}
	}
	s.tpls = append(s.tpls, tplRule{prefix: prefix, tpl: tpl})
}

// matchTpl picks the template whose prefix is the longest match for name.
func matchTpl(tpls []tplRule, name string) (*ClassTemplate, bool) {
	best := -1
	for i := range tpls {
		if strings.HasPrefix(name, tpls[i].prefix) &&
			(best < 0 || len(tpls[i].prefix) > len(tpls[best].prefix)) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	return &tpls[best].tpl, true
}

// config resolves the class configuration the template produces for name,
// consulting Make when set.
func (t *ClassTemplate) config(name string) (ClassConfig, error) {
	if t.Make == nil {
		return t.Class, nil
	}
	if c, ok := t.Make(name); ok {
		return c, nil
	}
	return ClassConfig{}, fmt.Errorf("%w: template refused %q", ErrUnknownTemplate, name)
}

// EnsureClass returns the class with the given name, creating it from the
// matching template if it does not exist. now is the scheduler clock (ns)
// used to seed the new class's idle tracking. It fails with
// ErrUnknownTemplate when no template matches (or the template's Make
// refuses the name) and with ErrUnknownClass when the template's parent
// has not been created yet.
func (s *Scheduler) EnsureClass(name string, now int64) (*Class, error) {
	if w := s.Class(name); w != nil {
		return w, nil
	}
	tpl, ok := matchTpl(s.tpls, name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTemplate, name)
	}
	cfg, err := tpl.config(name)
	if err != nil {
		return nil, err
	}
	var parent *Class
	if tpl.Parent != "" {
		if parent = s.Class(tpl.Parent); parent == nil {
			return nil, fmt.Errorf("%w: template parent %q", ErrUnknownClass, tpl.Parent)
		}
	}
	w, err := s.AddClass(parent, name, cfg)
	if err != nil {
		return nil, err
	}
	if tpl.Grace > 0 { // enroll in idle collection
		if s.lc == nil {
			s.lc = map[int]*lcEntry{}
		}
		s.lc[w.ID()] = &lcEntry{cl: w, grace: tpl.Grace.Nanoseconds(), idleSince: now, onCollect: tpl.OnCollect}
	}
	return w, nil
}

// CollectIdle removes every tracked class that has been idle — empty
// queue and no packets served or dropped between scans — for at least its
// template's grace period, and returns how many were collected. A class
// that went busy again resets its idle clock; a collected name re-created
// later starts fresh (fresh id, curves re-anchored at creation), which
// outside the grace window schedules identically to a never-removed idle
// class because an idle period re-anchors the runtime curves anyway.
//
// Like every Scheduler method it must be serialized with scheduling;
// PacedQueue calls it from the pacing goroutine between drain batches, so
// the hot path gains no locks.
func (s *Scheduler) CollectIdle(now int64) int {
	n := 0
	for id, e := range s.lc {
		c := e.cl.c
		st := s.classStats(c)
		mark := st.SentPackets + st.Dropped
		if st.QueuedPackets > 0 || mark != e.seen {
			e.seen = mark
			e.idleSince = now
			continue
		}
		if now-e.idleSince < e.grace {
			continue
		}
		name := c.Name()
		if err := s.RemoveClass(e.cl); err != nil {
			// Became interior (gained children) or otherwise uncollectable:
			// stop tracking instead of retrying every scan.
			delete(s.lc, id)
			continue
		}
		// RemoveClass already dropped the lc entry; the callback runs after
		// all registries are consistent.
		if e.onCollect != nil {
			e.onCollect(name, id)
		}
		n++
	}
	return n
}

// ClassID resolves a class name to the id to place in Packet.Class. It
// reads a lock-free registry and — uniquely among Scheduler methods — is
// safe from any goroutine, concurrently with scheduling; PacedQueue's
// submit-by-name fast path rides on it. The id may refer to a class that
// is removed between this call and its use; packets to it are then refused
// with DropUnknownClass (see PacedQueue.OnReject).
func (s *Scheduler) ClassID(name string) (int, bool) {
	v, ok := s.names.Load(name)
	if !ok {
		return 0, false
	}
	return v.(*Class).ID(), true
}

// lcArmed reports whether any class is enrolled in idle collection — the
// pacing goroutine's cue to schedule CollectIdle scans.
func (s *Scheduler) lcArmed() bool { return len(s.lc) > 0 }

// lcPeriod is the scan interval: a quarter of the smallest enrolled grace
// (so collection lags the grace by at most 25%), floored at 1ms so a
// microscopic grace cannot turn the pacing loop into a busy GC loop. With
// nothing enrolled it is the floor: the scan that collected the last
// class must not push the next scan out of reach of a class enrolled
// later.
func (s *Scheduler) lcPeriod() int64 {
	if len(s.lc) == 0 {
		return int64(time.Millisecond)
	}
	min := int64(1<<63 - 1)
	for _, e := range s.lc {
		if e.grace < min {
			min = e.grace
		}
	}
	p := min / 4
	if p < int64(time.Millisecond) {
		p = int64(time.Millisecond)
	}
	return p
}
