// Package harness is mpchaos: one multi-node read-write workload, written
// against the wire.Backend/wire.Tx every other client uses, run under a
// seeded fault plan, and one verdict — a pure function, table-tested without
// a cluster — from what the run recorded to the crash-consistency invariants
// that did not hold (DESIGN.md §7). Plans vary the fault and, as rows of one
// table, the client's retry policy and the cluster's configuration. Fault
// decisions are deterministic in the seed, so a failure replays under it as
// far as goroutine scheduling allows.
//
// A sub-package, because package core's tests import internal/chaos and so
// chaos itself cannot import core.
package harness

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"time"

	"polardbmp/internal/chaos"
	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
)

// Options are cmd/mpchaos's flags. -seed, -nodes, -ops, -timeout and -v are the
// Spec's; its Config and Faults are Run's to derive from Plan, CC and Retries.
type Options struct {
	Plan, CC      string
	Retries, Proc bool
	BinDir        string
	Spec
}

// planRow is what one -plan value changes: the faults, the cluster
// configuration they need, and the client policy.
type planRow struct {
	// faults builds the schedule (nil: chaos.PresetPlan of the same name).
	// window estimates the run's length in fabric ops — a transaction costs
	// 10-20 — to position mid-run faults.
	faults   func(nodes int, window uint64) chaos.Plan
	minNodes int
	tune     func(*core.Config)
	policy
}

var plans = map[string]planRow{
	"smoke": {}, "drop": {}, "lossy": {}, "slownode": {}, "stalledstorage": {}, "none": {},
	// Node 1 is cut off from the rest for the middle third of the run. The
	// only direct node↔node traffic in the star through PMFS is one-sided TIT
	// reads resolving a foreign commit timestamp; CTS stamping short-circuits
	// most of those, so it is off to give the partition something to cut.
	"partition": {
		faults: func(nodes int, window uint64) chaos.Plan {
			var rest []common.NodeID
			for i := 2; i <= nodes; i++ {
				rest = append(rest, common.NodeID(i))
			}
			return chaos.PartitionPlan([]common.NodeID{1}, rest, window/3, 2*window/3)
		},
		tune: func(c *core.Config) { c.DisableCTSStamp = true },
	},
	// The last node fail-stops a third of the way in, undeclared: the lease
	// detector must notice the silence, fence the victim under a new epoch,
	// and take over.
	"crashnode": {
		minNodes: 2,
		faults: func(nodes int, window uint64) chaos.Plan {
			return chaos.CrashNodePlan(common.NodeID(nodes), window/3)
		},
		tune: func(c *core.Config) { c.SelfHeal = true },
	},
	// A shared-memory replica dies a third of the way in.
	"pmfsfailover": {faults: func(_ int, window uint64) chaos.Plan { return chaos.PmfsFailoverPlan(window / 3) }},
	// Everything slows, nothing dies: the last node's link crawls, 20% of
	// storage I/O stalls 2ms, 5% of DBP frame reads stall 10ms (a bimodal
	// tail the deadline budgets must absorb). SelfHeal runs the lease
	// agents at a tight renew cadence: the crawling node keeps renewing, so
	// it must keep its lease — slow, never evicted.
	"brownout": {
		minNodes: 2,
		faults: func(nodes int, _ uint64) chaos.Plan {
			return chaos.BrownoutPlan(common.NodeID(nodes), 10*time.Millisecond, 2*time.Millisecond, 10*time.Millisecond)
		},
		tune: func(c *core.Config) {
			c.SelfHeal, c.LeaseRenewInterval, c.LeaseTimeout = true, 10*time.Millisecond, 200*time.Millisecond
		},
		policy: policy{budget: 400 * time.Millisecond, tries: 9},
	},
	// Topology churn under light fabric noise.
	"elastic": {minNodes: 2, policy: policy{tries: 10, cycles: 3}},
}

// Run is one mpchaos invocation. It prints the run's report to w and returns
// the invariant violations (none: PASS); err is a flag or setup error.
func Run(w io.Writer, o Options) ([]string, error) {
	if o.Proc {
		return runProc(w, o)
	}
	row, ok := plans[o.Plan]
	switch {
	case !ok:
		return nil, fmt.Errorf("mpchaos: unknown -plan %q", o.Plan)
	case o.Nodes < row.minNodes:
		return nil, fmt.Errorf("mpchaos: %s needs at least %d nodes (use -nodes)", o.Plan, row.minNodes)
	case o.CC != "" && !core.ValidCC(o.CC):
		return nil, fmt.Errorf("mpchaos: unknown -cc engine %s", o.CC)
	}
	s := o.Spec
	s.policy, s.Config = row.policy, core.Config{CC: o.CC, DisableRetry: !o.Retries}
	if row.tune != nil {
		row.tune(&s.Config)
	}
	s.Faults, _ = chaos.PresetPlan(o.Plan) // a row without faults is named after a preset (TestTraitsOf)
	if row.faults != nil {
		s.Faults = row.faults(o.Nodes, uint64(o.Nodes*o.Ops*12))
	}
	fmt.Fprintf(w, "mpchaos: plan=%s seed=%d nodes=%d ops=%d retries=%v\n", o.Plan, o.Seed, o.Nodes, o.Ops, o.Retries)
	res, err := s.Run(w)
	return res.Violations, err
}

// Spec is one in-process run: Ops transactions per node on a fresh cluster
// of Nodes nodes, under Faults drawn from Seed. The client policy belongs to
// the plan table; a Spec built outside this package runs the plain loop.
type Spec struct {
	Config     core.Config // a zero LockWaitTimeout means 5s
	Faults     chaos.Plan
	Seed       int64
	Nodes, Ops int
	Timeout    time.Duration // workload watchdog; 0 waits for ever
	Verbose    bool          // print the full fault timeline
	policy
}

// Result is what a run left behind.
type Result struct {
	Committed, RolledBack int
	// Leaked are the errors that reached a worker and are neither retryable,
	// nor from a node the plan killed, nor inside a partition window.
	Leaked     []error
	FabricOps  uint64   // operations the fault engine inspected
	Faults     int      // faults it injected
	Violations []string // the invariants that did not hold; all of Leaked together are one
}

// Run builds the cluster, runs the workload under the faults, verifies on a
// quiet fabric and closes the cluster.
func (s Spec) Run(w io.Writer) (Result, error) {
	eng, err := chaos.New(s.Seed, s.Faults)
	if err != nil {
		return Result{}, err
	}
	s.Config.LockWaitTimeout = cmp.Or(s.Config.LockWaitTimeout, 5*time.Second)
	db, err := netsrv.NewDB(s.Config, s.Nodes)
	if err != nil {
		return Result{}, err
	}
	c := db.Cluster
	sp, err := db.CreateTable("t")
	if err != nil {
		c.Close()
		return Result{}, err
	}
	// ActCrashNode rules fail-stop their victim via KillNode — a silent kill,
	// with none of CrashNode's declared-failure cleanup — or, naming the PMFS
	// pseudo-node, the leader replica, which also exercises promotion.
	eng.SetCrashHandler(func(id common.NodeID) {
		if id != common.PMFSNode {
			_ = c.KillNode(id)
		} else if rep := c.PmfsReplicator(); rep != nil {
			_ = c.KillPMFSReplica(rep.Leader())
		}
	})
	st := c.Stats()
	obs := &observations{committed: make(map[string]string), epoch0: st.Membership.Epoch, pmfsEpoch0: st.Pmfs.Epoch}
	r := &run{Spec: s, c: c, sp: sp, obs: obs}
	tr := traitsOf(s.Faults, s.policy)

	eng.Install(c.Fabric(), c.Store())
	start := time.Now()
	// Watchdog: without retries one lost lock-service message can strand every
	// waiter behind the server's wait backstop. A wedged run IS a violation.
	done := make(chan struct{})
	go func() { defer close(done); r.workload() }()
	select {
	case <-done:
		defer c.Close()
	case <-expiry(s.Timeout):
		// No Close: it would wait on the goroutines that are stuck, and the
		// caller is about to exit.
		printFaults(w, eng, s.Verbose)
		return Result{Violations: []string{fmt.Sprintf("workload wedged (no progress within %v)", s.Timeout)}}, nil
	}
	obs.elapsed = time.Since(start)
	// Faults off: the invariants are about what the run left behind.
	chaos.Uninstall(c.Fabric(), c.Store())
	if tr.victims != nil {
		// Give the survivors' detector time to finish the takeover (or to
		// start it, if the kill landed late). The harness never intervenes.
		waitUntil(15*time.Second, 10*time.Millisecond, func() bool { return c.Stats().Membership.Takeovers > 0 })
	}
	obs.stats = c.Stats()
	obs.nodes = r.verifyReads()

	printFaults(w, eng, s.Verbose)
	report, violations := verdict(obs, tr)
	for _, line := range report {
		fmt.Fprintln(w, line)
	}
	return Result{Committed: len(obs.committed), RolledBack: len(obs.rolledBack), Leaked: obs.tally(tr).leaked,
		FabricOps: eng.OpCount(), Faults: len(eng.Events()), Violations: violations}, nil
}

// expiry is the watchdog's channel; a timeout of 0 never fires.
func expiry(timeout time.Duration) <-chan time.Time {
	if timeout <= 0 {
		return nil
	}
	return time.After(timeout)
}

// waitUntil polls cond every interval until it holds or timeout passes, and
// reports whether it held.
func waitUntil(timeout, interval time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(interval) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

func printFaults(w io.Writer, eng *chaos.Engine, verbose bool) {
	events := eng.Events()
	byRule := map[string]int{}
	for _, ev := range events {
		byRule[ev.Rule+"/"+ev.Action]++
	}
	keys := make([]string, 0, len(byRule))
	for k := range byRule {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "faults: %d injected over %d fabric/storage ops (log fingerprint %016x)\n",
		len(events), eng.OpCount(), eng.Fingerprint())
	for _, k := range keys {
		fmt.Fprintf(w, "  %-32s %d\n", k, byRule[k])
	}
	if verbose {
		fmt.Fprint(w, eng.Timeline())
	}
}
