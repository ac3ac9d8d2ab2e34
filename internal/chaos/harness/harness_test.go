package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"polardbmp/internal/chaos"
	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/wire"
	"polardbmp/internal/workload"
)

func wrapped(err error) error { return fmt.Errorf("core: node 2: %w", err) }

// TestPlanVerdicts holds the verdict to every invariant without building a
// cluster: for each rule one clean row and one violating row (the positive
// control), as observations a run could have recorded.
func TestPlanVerdicts(t *testing.T) {
	crash := traits{victims: map[common.NodeID]bool{3: true}}
	brown := traits{policy: plans["brownout"].policy}
	elastic := traits{policy: plans["elastic"].policy}
	fails := func(errs ...error) []failure {
		var fs []failure
		for _, err := range errs {
			fs = append(fs, failure{err, true})
		}
		return fs
	}
	lats := func(n int, d time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	// cycled is a finished elastic run: three cycles, epochs climbing.
	cycled := func(mod func(*observations)) observations {
		o := observations{drains: 3, rejoins: 3, epochs: []uint64{3, 4, 6, 7}, epoch0: 3}
		o.stats.Membership.Epoch = 12
		if mod != nil {
			mod(&o)
		}
		return o
	}
	takenOver := func(takeovers int64, epoch uint64) observations {
		o := observations{epoch0: 3, nodes: []nodeCheck{{node: 1}, {node: 2}, {node: 3, down: true}}}
		o.stats.Membership.Takeovers, o.stats.Membership.Epoch = takeovers, epoch
		return o
	}
	failedOver := func(failovers int64, epoch uint64) observations {
		o := observations{pmfsEpoch0: 1}
		o.stats.Pmfs.Failovers, o.stats.Pmfs.Epoch = failovers, epoch
		return o
	}

	cases := []struct {
		name string
		obs  observations
		tr   traits
		want string // substring of the one violation; "" = clean
	}{
		{"clean run", observations{nodes: []nodeCheck{{node: 1}, {node: 2}}, csns: []uint64{5, 6, 0, 0}}, traits{}, ""},

		{"lost row", observations{nodes: []nodeCheck{{node: 1}, {node: 2, lost: 2}}}, traits{}, "node 2: 2 committed rows lost"},
		{"wrong value", observations{nodes: []nodeCheck{{node: 1, wrong: 1}}}, traits{}, "node 1: 1 committed rows with wrong values"},
		{"resurfaced rollback", observations{nodes: []nodeCheck{{node: 3, resurfaced: 4}}}, traits{}, "node 3: 4 rolled-back rows resurfaced"},
		{"unreadable row is not a lost row", observations{nodes: []nodeCheck{{node: 2, readErrs: []error{common.ErrUnreachable}}}}, traits{},
			"node 2: verification read failed: polardbmp: destination unreachable"},
		{"verify transaction refused", observations{nodes: []nodeCheck{{node: 2, beginErr: common.ErrDraining}}}, traits{}, "node 2 cannot open verify transaction"},
		{"node down with no crash plan", observations{nodes: []nodeCheck{{node: 3, down: true}}}, traits{}, "node 3 is down but the plan never crashed it"},

		{"retryable errors are workload noise", observations{failures: fails(wrapped(common.ErrLockTimeout), wrapped(common.ErrDeadlock))}, traits{}, ""},
		{"leak outside a partition window", observations{failures: fails(wrapped(common.ErrUnreachable))}, traits{}, "1 faults leaked to the application; first: core: node 2: polardbmp: destination unreachable"},
		{"leak tolerated inside a partition window", observations{failures: fails(wrapped(common.ErrUnreachable))}, traits{partitioned: true}, ""},
		{"injected fault leaks even under a partition", observations{failures: fails(common.ErrInjected)}, traits{partitioned: true}, "1 faults leaked"},
		{"deadline error without a budget is a leak", observations{failures: fails(common.ErrDeadlineExceeded)}, traits{}, "1 faults leaked"},
		{"severed error with no crash plan", observations{failures: fails(wrapped(common.ErrNodeDown), common.ErrClosed)}, traits{}, "2 severed-node errors surfaced but the plan crashes nobody"},

		{"crash absorbed", func() observations {
			o := takenOver(1, 4)
			o.failures = fails(wrapped(common.ErrNodeDown), common.ErrStaleEpoch)
			return o
		}(), crash, ""},
		{"takeovers < victims", takenOver(0, 4), crash, "survivors finished 0 takeovers, want 1"},
		{"epoch not advanced", takenOver(1, 3), crash, "cluster epoch 3 never advanced past pre-crash epoch 3"},

		{"duplicate CSN", observations{csns: []uint64{7, 8, 7, 0, 0}}, traits{}, "1 duplicate commit CSNs"},

		{"pmfs failover absorbed", failedOver(1, 2), traits{pmfsKills: 1}, ""},
		{"pmfs failovers != kills", failedOver(0, 2), traits{pmfsKills: 1}, "pmfs tier absorbed 0 failovers, want 1"},
		{"pmfs epoch != +kills", failedOver(1, 3), traits{pmfsKills: 1}, "pmfs epoch 3, want exactly 2 (pre-kill 1 + 1 kill(s))"},

		{"degraded but graceful", observations{lats: lats(10, 300*time.Millisecond), worstOver: 200 * time.Millisecond,
			failures: append(fails(common.ErrDeadlineExceeded), failure{common.ErrOverloaded, false})}, brown, ""},
		{"goodput under floor", observations{lats: lats(10, time.Millisecond), failures: fails(common.ErrDeadlineExceeded, common.ErrDeadlineExceeded,
			common.ErrDeadlineExceeded, common.ErrDeadlineExceeded, common.ErrDeadlineExceeded, common.ErrDeadlineExceeded, common.ErrDeadlineExceeded)},
			brown, "goodput 30.0% under the 40% floor"},
		{"p99 over bound", observations{lats: lats(10, 3*time.Second)}, brown, "p99 3s exceeds the 2s bound"},
		{"overrun past budget+grace", observations{lats: lats(10, time.Millisecond), overruns: 1, worstOver: 700 * time.Millisecond}, brown,
			"1 transactions outlived budget+grace (worst overrun 700ms)"},
		{"permanent ErrOverloaded", observations{lats: lats(10, time.Millisecond), failures: fails(wrapped(common.ErrOverloaded))}, brown,
			"1 transactions still ErrOverloaded after 8 backoff rounds"},

		{"graceful churn", cycled(func(o *observations) { o.failures = fails(wrapped(common.ErrWriteConflict)) }), elastic, ""},
		{"membership abort", cycled(func(o *observations) {
			o.failures = []failure{{wrapped(common.ErrFenced), false}, {wrapped(common.ErrClosed), true}}
		}), elastic, "2 transactions aborted for membership reasons during graceful drains; first: core: node 2: polardbmp: page fenced"},
		{"takeover during drain", cycled(func(o *observations) { o.stats.Membership.Takeovers = 1 }), elastic, "graceful drains triggered 1 takeovers, want 0"},
		{"epoch regress", cycled(func(o *observations) { o.epochs = []uint64{3, 5, 4, 6} }), elastic, "topology epoch regressed: 4 after 5"},
		{"incomplete cycles", cycled(func(o *observations) { o.rejoins = 2 }), elastic, "only 3/3 drains and 2/3 rejoins completed"},
		{"orchestrator error", cycled(func(o *observations) { o.orchErrs = []error{errors.New("cycle 1 drain: boom")} }), elastic, "orchestration failed: cycle 1 drain: boom"},
		{"epoch never advanced over churn", cycled(func(o *observations) { o.stats.Membership.Epoch = 3 }), elastic, "cluster epoch 3 never advanced past 3 despite 6 topology changes"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, got := verdict(&tc.obs, tc.tr)
			switch {
			case tc.want == "" && len(got) > 0:
				t.Fatalf("clean observations judged %q", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Fatalf("verdict %q, want exactly one violation containing %q", got, tc.want)
			}
		})
	}
}

// TestTraitsOf: what a plan entitles a run to see is read off its rules, and
// every table row without a schedule of its own names a preset.
func TestTraitsOf(t *testing.T) {
	for name, row := range plans {
		if _, err := chaos.PresetPlan(name); row.faults == nil && err != nil {
			t.Errorf("plan %q has no faults and no preset: %v", name, err)
		}
	}
	if tr := traitsOf(chaos.CrashNodePlan(3, 10), policy{}); !tr.victims[3] || tr.pmfsKills != 0 || tr.partitioned {
		t.Fatalf("crashnode: %+v", tr)
	}
	if tr := traitsOf(chaos.PmfsFailoverPlan(10), policy{}); tr.victims != nil || tr.pmfsKills != 1 {
		t.Fatalf("pmfsfailover: %+v", tr)
	}
	if tr := traitsOf(chaos.PartitionPlan([]common.NodeID{1}, []common.NodeID{2}, 1, 2), policy{}); !tr.partitioned || tr.victims != nil {
		t.Fatalf("partition: %+v", tr)
	}
}

// TestProcVerdicts covers -proc's own rules: the ambiguity fold that feeds
// Bank.Audit, and the takeover, epoch and leak gates.
func TestProcVerdicts(t *testing.T) {
	amb := func(marker string) workload.AmbiguousTransfer {
		return workload.AmbiguousTransfer{G: common.GTrxID{Node: 2, Trx: 9}, Marker: marker}
	}
	present, absent, bad := foldAmbiguous([]string{"a1", "a2"}, []string{"f1"}, []resolution{
		{amb: amb("c"), outcome: wire.TxStatusCommitted},
		{amb: amb("r"), outcome: wire.TxStatusAborted},
		{amb: amb("u"), outcome: wire.TxStatusUnknown, err: errors.New("timed out")},
		{amb: amb("x"), outcome: wire.TxStatusActive},
	})
	if want := []string{"a1", "a2", "c"}; !reflect.DeepEqual(present, want) {
		t.Errorf("mustPresent %q, want %q", present, want)
	}
	if want := []string{"f1", "r"}; !reflect.DeepEqual(absent, want) {
		t.Errorf("mustAbsent %q, want %q", absent, want)
	}
	if len(bad) != 2 || !strings.Contains(bad[0], "unresolved: timed out") || !strings.Contains(bad[1], "unexpected outcome 1") {
		t.Errorf("violations %q, want the unresolved and the still-active commit", bad)
	}

	clean := func(mod func(*procObs)) procObs {
		o := procObs{epoch0: 3, epochs: []uint64{3, 4, 4, 5}, sessions: 1,
			afterKill: core.MembershipStats{Epoch: 4, Takeovers: 1},
			final:     core.MembershipStats{Epoch: 5, Takeovers: 1},
			leaks:     []leakReading{{name: "seed", base: 40, now: 44}, {name: "sat2"}, {name: "gateway", base: 20, now: 36}}}
		if mod != nil {
			mod(&o)
		}
		return o
	}
	cases := []struct {
		name string
		obs  procObs
		want []string
	}{
		{"clean", clean(nil), nil},
		{"no takeover", clean(func(o *procObs) {
			o.afterKill = core.MembershipStats{Epoch: 3, TakeoverErr: "lock wait"}
			o.final.Takeovers = 0
		}), []string{"survivors never took over", "takeover did not bump the epoch (3 -> 3)", "expected exactly one takeover, saw 0"}},
		{"takeover needed a retry", clean(func(o *procObs) { o.afterKill.TakeoverFails = 2 }), []string{"takeover needed 2 failed attempts"}},
		{"second takeover", clean(func(o *procObs) { o.final.Takeovers = 2 }), []string{"expected exactly one takeover, saw 2"}},
		{"epoch moved backwards", clean(func(o *procObs) { o.epochs = []uint64{4, 3, 5} }), []string{"epoch moved backwards: 4 -> 3"}},
		{"final epoch below last seen", clean(func(o *procObs) { o.final.Epoch = 4 }), []string{"final epoch 4 below last observed 5"}},
		{"goroutine leak", clean(func(o *procObs) { o.leaks[2].now = 37 }), []string{"gateway leaked goroutines: baseline 20, now 37 (slack 16)"}},
		{"survivor unreadable at the end", clean(func(o *procObs) { o.leaks[0].now = 0 }), []string{"seed leaked goroutines: baseline 40, now 0"}},
		{"sessions left open", clean(func(o *procObs) { o.sessions = 3 }), []string{"gateway still carries 3 active sessions"}},
	}
	for _, tc := range cases {
		got := procVerdict(tc.obs)
		if len(got) != len(tc.want) {
			t.Errorf("%s: verdict %q, want %d violations", tc.name, got, len(tc.want))
			continue
		}
		for i, want := range tc.want {
			if !strings.Contains(got[i], want) {
				t.Errorf("%s: violation %q, want it to contain %q", tc.name, got[i], want)
			}
		}
	}
}

// TestRunPlans runs the one loop end to end under each policy: the plain one,
// the rerouting one with its orchestrator, and the budgeted one with backoff
// (on a quiet fabric: the brownout plan's 200ms leases are for a smoke on an
// idle host, not for a test that shares its cores). A clean run must report
// nothing at all.
func TestRunPlans(t *testing.T) {
	check := func(t *testing.T, out *bytes.Buffer, violations []string, err error, line string) {
		t.Helper()
		if err != nil || len(violations) > 0 {
			t.Fatalf("violations %q, err %v\n%s", violations, err, out)
		}
		if !strings.Contains(out.String(), "invariants: durable=") || !strings.Contains(out.String(), line) {
			t.Fatalf("report lacks the invariants line or %q:\n%s", line, out)
		}
	}
	t.Run("none", func(t *testing.T) {
		var out bytes.Buffer
		v, err := Run(&out, Options{Plan: "none", Retries: true, Spec: Spec{Seed: 7, Nodes: 3, Ops: 30, Timeout: time.Minute}})
		check(t, &out, v, err, "faults: 0 injected")
	})
	t.Run("elastic", func(t *testing.T) {
		var out bytes.Buffer // 300 ops: long enough to overlap the drain/rejoin cycles
		v, err := Run(&out, Options{Plan: "elastic", Retries: true, Spec: Spec{Seed: 7, Nodes: 3, Ops: 300, Timeout: time.Minute}})
		check(t, &out, v, err, "elastic: 3 drain/rejoin cycles")
	})
	t.Run("budgeted", func(t *testing.T) {
		var out bytes.Buffer
		res, err := Spec{Faults: chaos.Plan{Name: "none"}, Nodes: 3, Ops: 30, Timeout: time.Minute, policy: plans["brownout"].policy}.Run(&out)
		check(t, &out, res.Violations, err, "brownout: goodput 100.0% (90/90)")
	})
	if _, err := Run(&bytes.Buffer{}, Options{Plan: "crashnode", Spec: Spec{Nodes: 1}}); err == nil {
		t.Fatal("crashnode on one node: want a setup error")
	}
	if _, err := Run(&bytes.Buffer{}, Options{Plan: "bogus", Spec: Spec{Nodes: 3}}); err == nil {
		t.Fatal("unknown plan: want a setup error")
	}
}
