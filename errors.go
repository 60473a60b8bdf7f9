package hfsc

import (
	"errors"

	"github.com/netsched/hfsc/internal/core"
)

// Sentinel errors returned by the public API. All errors returned by
// Scheduler methods wrap one of these (or a core sentinel re-exported
// below) and can be matched with errors.Is; the error strings additionally
// carry the specific class name, rate or curve involved.
var (
	// ErrDuplicateClass is returned by AddClass when the name is taken.
	ErrDuplicateClass = errors.New("hfsc: duplicate class name")
	// ErrNilClass is returned when a nil *Class is passed where a class is
	// required.
	ErrNilClass = errors.New("hfsc: nil class")
	// ErrNoLinkRate is returned by Admissible and DelayBound when
	// Config.LinkRate was left zero.
	ErrNoLinkRate = errors.New("hfsc: Config.LinkRate not set")
	// ErrInadmissible is returned by Admissible when the sum of the leaf
	// real-time curves exceeds the link's capacity curve, i.e. the SCED
	// schedulability condition of the paper's Section II fails.
	ErrInadmissible = errors.New("hfsc: real-time curves exceed the link capacity")
	// ErrMetricsDisabled is returned by WriteMetrics when the scheduler was
	// created without Config.Metrics.
	ErrMetricsDisabled = errors.New("hfsc: metrics not enabled in Config")
	// ErrUnknownTemplate is returned by EnsureClass (and by SubmitTo's
	// auto-create path) when no registered class template matches the name:
	// neither Config.AutoClass nor any SetTemplate prefix applies, or the
	// template's Make hook refused the name.
	ErrUnknownTemplate = errors.New("hfsc: no class template matches name")
	// ErrUnknownClass is returned by the name-addressed admin operations
	// (RemoveClass/SetCurves/Correct by name on PacedQueue and MultiQueue)
	// when no live class has that name.
	ErrUnknownClass = errors.New("hfsc: unknown class name")
	// ErrBackendBusy is returned under BackendAuto when a hierarchy change
	// would force a datapath switch (e.g. the first real-time class
	// arriving while the fast path holds packets): switches happen only on
	// an idle scheduler. Drain and retry.
	ErrBackendBusy = errors.New("hfsc: backend switch requires an idle scheduler")
	// ErrNonConcaveCurve is returned by DelayBound when the real-time curve
	// is convex (M1 < M2 with a non-zero D): Theorem 1's delay bound — and
	// SCED schedulability generally — assumes concave service curves.
	ErrNonConcaveCurve = errors.New("hfsc: real-time curve is not concave")
	// ErrUnitExceedsLMax is returned by DelayBound when the burst unit u is
	// larger than the stated maximum packet length lmax — an inconsistent
	// query, since lmax bounds every unit the class can submit.
	ErrUnitExceedsLMax = errors.New("hfsc: work unit exceeds lmax")
	// ErrCurveUnreachable is returned by DelayBound when the curve never
	// delivers the requested u bytes (a zero curve, or one whose slopes
	// decay to zero before u is supplied), so no finite bound exists.
	ErrCurveUnreachable = errors.New("hfsc: curve never delivers the requested work")
)

// Structural errors surfaced from the core scheduler; RemoveClass and
// SetCurves wrap these.
var (
	// ErrRootClass: the operation does not apply to the implicit root.
	ErrRootClass = core.ErrRootClass
	// ErrNotLeaf: RemoveClass on a class that still has children.
	ErrNotLeaf = core.ErrNotLeaf
	// ErrClassActive: the class is active (queued packets or in-tree state);
	// RemoveClass and SetCurves require a passive class.
	ErrClassActive = core.ErrClassActive
	// ErrClassRemoved: the *Class was already removed from the hierarchy;
	// stale references held across RemoveClass cannot be operated on (and,
	// in particular, cannot corrupt the name registry of a class re-added
	// under the same name).
	ErrClassRemoved = core.ErrClassRemoved
)

// Lifecycle aliases: the name-addressed admin API documents its failure
// modes under these names; they alias the structural sentinels above so
// errors.Is matches either spelling.
var (
	// ErrClassBusy: RemoveClass on a class that still has queued packets or
	// in-tree scheduling state, or a curve-presence change on an active
	// class. Alias of ErrClassActive.
	ErrClassBusy = ErrClassActive
	// ErrHasChildren: RemoveClass on an interior class. Alias of ErrNotLeaf.
	ErrHasChildren = ErrNotLeaf
)
