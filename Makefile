GO ?= go

.PHONY: check lint fmt vet build test stress conformance bench bench-smoke bench-intake bench-json bench-check bench-churn bench-audit

## check: the full pre-merge gate — formatting, vet, build, race tests
## and a short benchmark smoke run to catch perf-path compile/runtime rot.
check: fmt vet build test bench-smoke

## lint: the static checks alone (formatting + vet), for fast CI feedback.
lint: fmt vet

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Repeated runs of the admission-middleware concurrency stress (16
# tenants hammering one Limiter) and the SLO-tiered acceptance test
# under the race detector: the paths these sweep — gate resolution vs
# abandon, tenant auto-creation vs stats, close vs in-flight waiters —
# only race under scheduling jitter, so one -race pass is not enough.
# The lifecycle property test rides along: completion corrections racing
# idle collection and template re-creation of the same names. The audit
# stress polls merged guarantee verdicts off 4 shards while CollectIdle
# retires template-created class ids mid-window. The paced queue's admin
# locking rides along at one shard and at four: name churn against
# removal, retuning and collection, back-to-back Inspects racing the idle
# park, and Correct from Transmit while Stop winds the shards down. The
# telemetry publish points ride along too: inside Transmit and OnReject
# the staged events of the pass must already be visible to Snapshot and
# the flight recorder, at one shard and at four. So do the packet pool —
# a producer and a releasing consumer trading 1M packets in magazines
# across GCs, each Get zeroed and never held twice — and the snapshot
# oracle, which checks slab-built snapshots, four-shard merges and their
# exposition against per-class copies through removals and idle sweeps.
# The admission wake channels are recycled between requests, so the
# middleware stress also races expiring contexts against transmit,
# mid-flight eviction and Close, checking no send wakes the wrong waiter.
stress:
	$(GO) test -race -count=3 -run='TestSixteenTenantRaceStress|TestSLOTieredAdmission|TestWakeChannelRecycleRace' ./hfscmw/
	$(GO) test -race -count=3 -run='TestCorrectCollectIdleRace|TestAuditVerdictCollectIdleRace' .
	$(GO) test -race -count=3 -run='TestPacedQueueChurn|TestPacedQueueInspectWakeup|TestPacedQueueCorrectFromTransmitDuringStop' .
	$(GO) test -race -count=3 -run='TestPacedTelemetryVisibleInCallbacks|TestOfferVisibleOnReturn' .
	$(GO) test -race -count=3 -run='TestPoolCycleZeroedAndExclusive' ./internal/pktq/
	$(GO) test -race -count=3 -run='TestSnapshotMatchesOracle|TestSnapshotCountsDoNotAlias' ./internal/metrics/

# The datapath conformance/bounds harness: the H-FSC core (BackendHFSC)
# and the HLS fast path (via BackendAuto on link-sharing-only trees)
# against the packet-level oracles — conservation and per-class FIFO on
# randomized hierarchies/traces, work conservation on a saturating burst,
# the paper's Fig. 2/3 link-sharing shapes against the fluid reference,
# and real-time delay bounds against the network-calculus envelope (with
# BackendAuto required to hand real-time hierarchies to the core).
conformance:
	$(GO) test -count=1 -run='TestConformance' ./internal/conformance/

# A handful of iterations of each benchmark: verifies the bench harnesses
# still run (panics in priming/steady-state loops fail the target) without
# taking benchmark-quality time.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=10x ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=2s ./...

# The intake-path benchmarks only: the sharded MPSC ring against the old
# single-channel baseline, plus the end-to-end PacedQueue.Submit path.
bench-intake:
	$(GO) test -run='^$$' -bench='Intake' -benchmem -benchtime=2s ./...

# Refresh the machine-readable overhead tracking file.
bench-json:
	$(GO) run ./cmd/hfsc-bench -json BENCH_overhead.json

# Regression gate: re-run the TBL-O1 overhead rows and the TBL-O4
# saturation sweep; fail if any ns_per_pkt regresses more than 15%
# against the frozen baseline section of BENCH_overhead.json, or if the
# shard-scaling knee returns (multiqueue-s8 costing more per packet than
# multiqueue-s1). Fewer ops than a full run — the gate catches
# step-change regressions, not noise.
bench-check:
	$(GO) run ./cmd/hfsc-bench -ops 100000 -check
	$(GO) run ./cmd/hfsc-bench -churn -ops 100000 -check

# The TBL-O6 class-churn rows alone: admin add/remove latency with 4096
# and 100k resident classes, and the mostly-idle steady state. With
# -check (as run from bench-check) the rows are gated three ways: an
# absolute 10µs budget on add/remove at 100k classes, the 100k-mostly-
# idle ns/pkt within 10% of a fresh 4096-class all-active figure, and
# the usual 15% regression gate against the frozen baseline rows.
bench-churn:
	$(GO) run ./cmd/hfsc-bench -churn -ops 100000

# The TBL-O8 guarantee-auditor rows alone: the audited hot path against a
# fresh untraced figure at every size, and the cost of materializing one
# verdict snapshot, merged into BENCH_overhead.json as audit-* rows. The
# 5% +audit budget itself is also enforced on every bench-check run via
# the flat-rbtree-audit row's gate against the untraced baseline.
bench-audit:
	$(GO) run ./cmd/hfsc-bench -audit -ops 100000 -check
