package harness

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"polardbmp/internal/chaos"
	"polardbmp/internal/common"
)

// The graceful-degradation floors assert that the cluster degrades, not that
// it runs at full speed.
const (
	goodputFloorPct = 40
	p99Bound        = 2 * time.Second
)

// traits is what the verdict knows about the plan a run was under: its
// policy and the faults it was entitled to see.
type traits struct {
	policy
	partitioned bool                   // unreachable windows are expected
	victims     map[common.NodeID]bool // database nodes the plan fail-stops (nil: none)
	pmfsKills   int64                  // shared-memory replicas it fail-stops
}

func traitsOf(p chaos.Plan, pol policy) traits {
	tr := traits{policy: pol, partitioned: len(p.Partitions) > 0}
	for _, r := range p.Rules {
		switch {
		case r.Action.Kind != chaos.ActCrashNode:
		case r.Action.Node == common.PMFSNode:
			tr.pmfsKills++
		case tr.victims == nil:
			tr.victims = map[common.NodeID]bool{r.Action.Node: true}
		default:
			tr.victims[r.Action.Node] = true
		}
	}
	return tr
}

// tally sorts a run's failed attempts into what its plan tolerates and what
// it does not.
type tally struct {
	retryable     int // deadlock, conflict, lock timeout, overload: workload noise
	severed       int // talking to a fail-stopped or fenced node
	tolerated     int // unreachable inside a partition window
	deadline      int // transactions that ended on a spent budget
	overloadFinal int // still ErrOverloaded after the last backoff round
	leaked        []error
	membership    []error // transactions a graceful drain killed
}

func (o *observations) tally(tr traits) tally {
	var t tally
	for _, f := range o.failures {
		severed := errors.Is(f.err, common.ErrNodeDown) || errors.Is(f.err, common.ErrClosed) || errors.Is(f.err, common.ErrStaleEpoch)
		switch {
		case tr.cycles > 0 && (severed || errors.Is(f.err, common.ErrFenced)):
			// Under graceful drains these mean the drain behaved like a crash.
			t.membership = append(t.membership, f.err)
		case tr.budget > 0 && errors.Is(f.err, common.ErrDeadlineExceeded):
			t.deadline++
		case common.IsRetryable(f.err):
			t.retryable++
			if f.final && tr.budget > 0 && errors.Is(f.err, common.ErrOverloaded) {
				t.overloadFinal++
			}
		case severed:
			t.severed++
		case tr.partitioned && errors.Is(f.err, common.ErrUnreachable):
			t.tolerated++ // retries cannot outwait a partition
		default:
			t.leaked = append(t.leaked, f.err)
		}
	}
	return t
}

// verdict judges a finished run: the lines mpchaos reports, and every
// invariant its plan is held to that did not hold (none: PASS).
func verdict(o *observations, tr traits) (report, violations []string) {
	note := func(format string, args ...any) { report = append(report, fmt.Sprintf(format, args...)) }
	fail := func(format string, args ...any) { violations = append(violations, fmt.Sprintf(format, args...)) }
	t := o.tally(tr)
	mem, pm := o.stats.Membership, o.stats.Pmfs
	note("workload: %v, %d committed, %d rolled back, %d aborted-retryable, %d severed",
		o.elapsed.Round(time.Millisecond), len(o.committed), len(o.rolledBack), t.retryable, t.severed)

	// Invariant 0: no fault gets past the retry layer as a non-retryable
	// error — except what the plan is about: unreachable errors inside a
	// partition window, severed connections to a node it kills.
	if t.tolerated > 0 {
		note("  tolerated %d unreachable errors during the partition window", t.tolerated)
	}
	if len(t.leaked) > 0 {
		fail("%d faults leaked to the application; first: %v", len(t.leaked), t.leaked[0])
	}
	if t.severed > 0 && tr.victims == nil {
		fail("%d severed-node errors surfaced but the plan crashes nobody", t.severed)
	}

	// Invariant 4 (crash plans): the harness never declares a crash, so the
	// lease table must show a fenced epoch bump and a finished takeover.
	if tr.victims != nil {
		if mem.Takeovers < int64(len(tr.victims)) {
			fail("survivors finished %d takeovers, want %d (failure detection never completed)",
				mem.Takeovers, len(tr.victims))
		}
		if mem.Epoch <= o.epoch0 {
			fail("cluster epoch %d never advanced past pre-crash epoch %d", mem.Epoch, o.epoch0)
		}
		note("self-healing: %d takeover(s) at epoch %d (mean %v), %d lease renewals, 0 harness CrashNode calls",
			mem.Takeovers, mem.Epoch, mem.TakeoverMean.Round(time.Microsecond), mem.LeaseRenewals)
	}

	// Invariant 5: the TSO never hands out a timestamp twice (a duplicated
	// fetch-add, a failover promoting a stale replica).
	seen, dup := make(map[uint64]bool, len(o.csns)), 0
	for _, csn := range o.csns {
		if csn != 0 && seen[csn] {
			dup++
		}
		seen[csn] = true
	}
	if dup > 0 {
		fail("%d duplicate commit CSNs — the TSO double-advanced or regressed", dup)
	}

	// Invariant 6 (pmfs failover plans): every replica kill became exactly
	// one failover, and the pmfs epoch advanced exactly once per kill.
	if k := tr.pmfsKills; k > 0 {
		if pm.Failovers != k {
			fail("pmfs tier absorbed %d failovers, want %d (replica kill not handled)", pm.Failovers, k)
		}
		if want := o.pmfsEpoch0 + uint64(k); pm.Epoch != want {
			fail("pmfs epoch %d, want exactly %d (pre-kill %d + %d kill(s)) — epoch must advance exactly once per failover",
				pm.Epoch, want, o.pmfsEpoch0, k)
		}
		note("pmfs: %d/%d replicas live at epoch %d after %d failover(s), leader=%d, %d quorum ops (p99 %v), %d read repairs, %d dup-suppressed",
			pm.Live, pm.Replicas, pm.Epoch, pm.Failovers, pm.Leader,
			pm.QuorumOps, pm.QuorumP99.Round(time.Microsecond), pm.ReadRepairs, pm.DupSuppressed)
	}

	// Invariants 1-3: committed rows durable and identical from every
	// surviving node, rolled-back rows gone. A crashed node is skipped — its
	// rows must be visible from everyone else. Only ErrNotFound is a lost
	// row; a read that failed otherwise says nothing about the row.
	verified := 0
	for _, nc := range o.nodes {
		switch {
		case nc.down && !tr.victims[common.NodeID(nc.node)]:
			fail("node %d is down but the plan never crashed it", nc.node)
		case nc.beginErr != nil:
			fail("node %d cannot open verify transaction: %v", nc.node, nc.beginErr)
		case !nc.down:
			verified++
		}
		if nc.lost > 0 {
			fail("node %d: %d committed rows lost", nc.node, nc.lost)
		}
		if nc.wrong > 0 {
			fail("node %d: %d committed rows with wrong values", nc.node, nc.wrong)
		}
		if nc.resurfaced > 0 {
			fail("node %d: %d rolled-back rows resurfaced", nc.node, nc.resurfaced)
		}
		if n := len(nc.readErrs); n > 0 {
			fail("node %d: verification read failed: %v (%d in all)", nc.node, nc.readErrs[0], n)
		}
	}
	if len(violations) == 0 {
		note("invariants: durable=%d rows visible from all %d surviving nodes, rollback=%d rows absent, converged",
			len(o.committed), verified, len(o.rolledBack))
	}

	// Graceful degradation (plans with a budget): a goodput floor, a bounded
	// tail, no transaction outliving budget+grace or overloaded for good.
	if tr.budget > 0 && len(o.lats) > 0 {
		sort.Slice(o.lats, func(i, j int) bool { return o.lats[i] < o.lats[j] })
		q := func(p float64) time.Duration { return o.lats[int(p*float64(len(o.lats)-1))] }
		done := len(o.lats) - t.deadline - t.overloadFinal
		goodput := 100 * float64(done) / float64(len(o.lats))
		note("brownout: goodput %.1f%% (%d/%d), p50 %v, p99 %v, %d deadline aborts (worst overrun %v)", goodput, done, len(o.lats),
			q(0.50).Round(time.Millisecond), q(0.99).Round(time.Millisecond), t.deadline, o.worstOver.Round(time.Millisecond))
		note("overload: deadline aborts=%d", o.stats.DeadlineAborts)
		if goodput < goodputFloorPct {
			fail("goodput %.1f%% under the %d%% floor — degradation is not graceful", goodput, goodputFloorPct)
		}
		if q(0.99) > p99Bound {
			fail("p99 %v exceeds the %v bound", q(0.99).Round(time.Millisecond), p99Bound)
		}
		if o.overruns > 0 {
			fail("%d transactions outlived budget+grace (worst overrun %v) — deadlines did not bound the work",
				o.overruns, o.worstOver.Round(time.Millisecond))
		}
	}
	if t.overloadFinal > 0 {
		fail("%d transactions still ErrOverloaded after %d backoff rounds — overload must be transient",
			t.overloadFinal, tr.tries-1)
	}

	// Elasticity (plans that drain and rejoin): every cycle completed, no
	// transaction aborted for a membership reason, no takeover (a graceful
	// exit leaves nothing to recover), topology epochs monotone.
	if tr.cycles > 0 {
		note("elastic: %d drain/rejoin cycles, %d rerouted begins, epoch %d -> %d", o.drains, o.rerouted, o.epoch0, mem.Epoch)
		for _, err := range o.orchErrs {
			fail("orchestration failed: %v", err)
		}
		if o.drains < tr.cycles || o.rejoins < tr.cycles {
			fail("only %d/%d drains and %d/%d rejoins completed", o.drains, tr.cycles, o.rejoins, tr.cycles)
		}
		if n := len(t.membership); n > 0 {
			fail("%d transactions aborted for membership reasons during graceful drains; first: %v", n, t.membership[0])
		}
		if mem.Takeovers != 0 {
			fail("graceful drains triggered %d takeovers, want 0 (nothing to recover)", mem.Takeovers)
		}
		for i := 1; i < len(o.epochs); i++ {
			if o.epochs[i] < o.epochs[i-1] {
				fail("topology epoch regressed: %d after %d", o.epochs[i], o.epochs[i-1])
				break
			}
		}
		if mem.Epoch <= o.epoch0 {
			fail("cluster epoch %d never advanced past %d despite %d topology changes",
				mem.Epoch, o.epoch0, o.drains+o.rejoins)
		}
	}
	return report, violations
}
