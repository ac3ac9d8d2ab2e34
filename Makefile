GO ?= go

# The whole tree, short mode (keeps the fuzz/storm tests scaled): the one
# race pass, in make check and so in CI.
RACE_PKGS = ./...

.PHONY: all build test test-full race vet smoke brownout-smoke proto-smoke \
        pmfs-smoke cc-smoke elastic-smoke crash-smoke wire-fuzz check \
        alloc-budget rt-budget trace-smoke loc soak

all: check

build:
	$(GO) build ./...

# Fast suite (<2 min): heavy recovery fuzz / crash-storm / figure tests are
# testing.Short()-guarded or scaled down.
test:
	$(GO) test -short ./...

# Full suite including the figure-harness tests (~1-2 min extra).
test-full:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -short -count=1 $(RACE_PKGS)

vet:
	$(GO) vet ./...

# End-to-end chaos smoke: workload under the smoke fault plan must PASS its
# durability/rollback/convergence invariants, and an undeclared mid-workload
# node kill must self-heal through lease detection + survivor takeover
# (non-zero exit on violation).
smoke:
	$(GO) run ./cmd/mpchaos -plan smoke -seed 7 -ops 60
	$(GO) run ./cmd/mpchaos -plan crashnode -seed 7 -ops 2000

# Graceful-degradation smoke: a deadline-bounded workload under simultaneous
# storage stalls, a crawling node, and a stalled-DBP-read tail must keep
# goodput above the floor, p99 bounded, zero transactions past budget+grace,
# and zero transactions still ErrOverloaded after backoff (see DESIGN.md
# §7 and §11; non-zero exit on violation).
brownout-smoke:
	$(GO) run ./cmd/mpchaos -plan brownout -seed 7 -ops 60

# Replicated shared-memory smoke: a 3-replica PMFS tier under load and light
# fabric noise loses its leader replica mid-workload; the run must absorb the
# kill (exactly one failover, pmfs epoch +1), keep every committed row, and
# hand out no duplicate commit CSN (TSO monotonic across the failover;
# non-zero exit on violation).
pmfs-smoke:
	$(GO) run ./cmd/mpchaos -plan pmfsfailover -seed 7 -ops 400

# Multi-process smoke: a seed mpserver + a satellite mpserver joined over the
# socket fabric + an mpgateway balancing across both; a bank workload through
# the gateway must hold its money-conservation invariant and both daemons'
# /stats endpoints must answer (non-zero exit on violation).
proto-smoke:
	./scripts/proto_smoke.sh

# Elasticity smoke. In-process first: graceful drain/rejoin cycles under load
# and light fabric noise must abort zero transactions for membership reasons,
# trigger zero takeovers, and keep topology epochs monotone. Then
# multi-process: drain a satellite through the wire admin surface (mpshell
# \drain) and assert every admin view agrees and the gateway migrates its
# routing off the drained backend (non-zero exit on violation).
elastic-smoke:
	$(GO) run ./cmd/mpchaos -plan elastic -seed 7 -ops 600
	./scripts/elastic_smoke.sh

# Process-level chaos smoke: seed + two satellites + gateway as real OS
# processes; SIGKILL a satellite mid-commit, partition a live fabric link via
# /netfault, heal, rejoin a replacement. Non-zero exit unless exactly one
# takeover ran under a monotone epoch, every acked commit survived (verified
# per-account by marker replay), every ambiguous commit was resolved through
# OpTxStatus, and survivors pass the goroutine/session leak gate.
crash-smoke:
	./scripts/crash_smoke.sh

# Fuzz the wire frame codec (round-trip + truncated/oversized rejection),
# the pmfs replication record codec (same contract: errors consume nothing,
# decoded records re-encode byte-identically), the page decoder (inputs
# sealed with a valid CRC; accepted images re-marshal byte-identically), the
# WAL record decoder (accepted records re-marshal byte-identically), the
# storage uplink's request decoder (a short request, or one with bytes past
# its last field, is refused as corrupt and changes nothing) and the fabric
# verb decoder (same contract, plus no element count the request cannot
# hold).
wire-fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s
	$(GO) test ./internal/pmfsrep -run '^$$' -fuzz FuzzRecordDecode -fuzztime 10s
	$(GO) test ./internal/page -run '^$$' -fuzz FuzzPageUnmarshal -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzWALRecordDecode -fuzztime 10s
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzStorageServeOp -fuzztime 10s
	$(GO) test ./internal/rdma -run '^$$' -fuzz FuzzFabricExecute -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzServices -fuzztime 10s

# Second-engine chaos smokes: the OCC engine must survive the same fault
# plans as the default 2PL path — undeclared node kill with takeover,
# gray-failure brownout with goodput/deadline floors, and a PMFS replica
# failover — with identical invariants (non-zero exit on violation).
cc-smoke:
	$(GO) run ./cmd/mpchaos -plan crashnode -seed 7 -ops 2000 -cc occ
	$(GO) run ./cmd/mpchaos -plan brownout -seed 7 -ops 60 -cc occ
	$(GO) run ./cmd/mpchaos -plan pmfsfailover -seed 7 -ops 400 -cc occ

check: build vet test race rt-budget smoke brownout-smoke pmfs-smoke cc-smoke proto-smoke elastic-smoke crash-smoke

# Satellite round-trip budget: on a JoinRemote satellite every fabric verb is
# a blocking socket round trip to the seed, so a private read-write
# transaction (10 Get + 2 GetForUpdate + 2 Update + Commit) must cost at most
# 4 of them — the TSO fetch-add and the fused redo append+sync, plus headroom.
# A TSO read per statement or an RPC per redo record trips it.
rt-budget:
	$(GO) test ./internal/core -run TestSatelliteRoundTripBudget -count=1 -v

# Disabled-tracer alloc budget: the commit hot path's tracer hooks must stay
# at 0 allocs/op when tracing is off (asserted by TestNilTracerZeroAllocs;
# the bench run proves the harness still compiles and runs).
alloc-budget:
	$(GO) test ./internal/trace -run TestNilTracerZeroAllocs -count=1 -v
	$(GO) test ./internal/trace -run '^$$' -bench BenchmarkTracerDisabledCommitHooks -benchtime=1x

# Trace smoke: run one traced rw/50 cell through mpbench and validate the
# emitted per-stage JSON against the schema (TraceRun self-validates and
# exits non-zero on a malformed document).
trace-smoke:
	$(GO) run ./cmd/mpbench -trace trace_smoke.json -nodes 2 -quick
	rm -f trace_smoke.json

# Known defects as committed reproducers (ROADMAP item 27): the soak-tagged
# tests, which the ordinary build never compiles, each run a fixed number of
# fresh clusters and print one JSON line of counts; soak.json collects them.
# They report and assert nothing, so a defect still open does not fail here.
soak:
	$(GO) test -tags soak -run '^TestSoak' -count=1 -timeout 20m -v ./internal/core > soak.log
	grep '^{' soak.log > soak.json
	cat soak.json

# Non-test, non-bench Go source lines: the number every diet PR quotes
# (29,271 before PR 13, 28,743 after it, 28,398 after PR 14, 27,632 after
# PR 16, 27,381 after PR 22, 27,240 after PR 24, 27,150 after PR 25, 27,135
# after validity-on-grant replaced the invalid flags, 26,991 after read
# hedging went, 26,790 after admission control and fail-slow suspicion went,
# 26,789 after the one-arena page decode, 26,415 after the Aurora-MM model
# went, 26,461 after reused link workers replaced a goroutine per request and
# one open WAL handle per stream replaced an open per sync, 26,317 after the
# fabric's one issue path took faults and op counts out of every transport,
# 26,310 after every fabric service but txfusion's moved to the one checked
# wire.Reader and the hand-offset decoders went, 26,105 after the gateway
# moved to internal/gateway with one session ledger, the optional session
# backend interfaces folded into wire.Backend and wire.Tx, and the tps_sim
# snapshot tool went, 26,090 after the gateway relay gave each fact one
# owner and its failover goroutine and generation check went, 26,022 after
# the storage uplink stopped polling the log fence and lost the ops no build
# sends, 26,000 after the session client and the fabric peer each kept one
# redialed link in place of their connection pools, 25,868 after every
# transport executed one rdma.Verb through a one-method rdma.Transport,
# 25,774 after a single page became a batch of one for the DBP push, the
# PLock release and the revoke, 25,771 after restart and takeover shared one
# fence set and one replay fold, 25,653 after every listener accepted through
# wire.Accept and every fabric service answered with its handler error; CI
# fails above that).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
