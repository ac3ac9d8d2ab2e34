package chaos_test

import (
	"io"
	"runtime"
	"testing"
	"time"

	"polardbmp/internal/chaos"
	"polardbmp/internal/chaos/harness"
	"polardbmp/internal/common"
	"polardbmp/internal/core"
)

// runPlan drives mpchaos's workload (harness.Spec: txPerNode transactions on
// each of three nodes, two committed upserts read back through a peer for
// every rolled-back insert) under plan, and fails the test unless the plan
// was exercised and the durability / rollback / convergence invariants hold
// on the quiet fabric afterwards. Leaked faults are the caller's to judge:
// together they are one violation, and any beyond it — a severed connection,
// a lost or resurfaced row — fails here, with retries or without.
func runPlan(t *testing.T, cfg core.Config, plan chaos.Plan, seed int64, txPerNode int) harness.Result {
	t.Helper()
	res, err := harness.Spec{Config: cfg, Faults: plan, Seed: seed, Nodes: 3, Ops: txPerNode}.Run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.RolledBack == 0 {
		t.Fatalf("degenerate workload: %d committed, %d rolled back", res.Committed, res.RolledBack)
	}
	if res.FabricOps == 0 || res.Faults == 0 {
		t.Fatalf("chaos engine saw %d ops, injected %d faults — plan not exercised", res.FabricOps, res.Faults)
	}
	if len(res.Violations) > min(len(res.Leaked), 1) {
		t.Fatalf("invariants violated: %q", res.Violations)
	}
	return res
}

// TestWorkloadUnderSmokePlan is the headline integration test: a 3-node
// read-write workload under dropped, delayed and duplicated fabric ops.
// With the default retry policy no fault may leak to the application, and
// the durability / rollback / convergence invariants must hold.
func TestWorkloadUnderSmokePlan(t *testing.T) {
	txPerNode := 120
	if testing.Short() {
		txPerNode = 40
	}
	res := runPlan(t, core.Config{}, chaos.SmokePlan(), 1234, txPerNode)
	if len(res.Leaked) > 0 {
		t.Fatalf("%d faults leaked through the retry layer; first: %v", len(res.Leaked), res.Leaked[0])
	}
}

// TestRetriesDisabledLeaksFaults is the ablation that justifies the retry
// layer: the identical workload and fault plan, but with DisableRetry set,
// must surface transient faults to the application (the invariant "no
// non-retryable errors reach the app" fails). The plan drops only
// side-effect-free one-sided ops (reads and atomics): dropped RPCs could
// wedge the run on lock waits, and dropped writes break the
// flush-before-PLock-release protocol itself — without retries that is a
// process-killing coherence panic, not a leaked error (demonstrated by
// cmd/mpchaos, not asserted here).
func TestRetriesDisabledLeaksFaults(t *testing.T) {
	txPerNode := 80
	if testing.Short() {
		txPerNode = 30
	}
	plan := chaos.Plan{
		Name: "onesided-drop",
		Rules: []chaos.Rule{
			{Name: "drop-onesided", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRead, common.FaultAtomic},
				Prob:    0.05, Action: chaos.Action{Kind: chaos.ActDrop}},
		},
	}
	if res := runPlan(t, core.Config{}, plan, 99, txPerNode); len(res.Leaked) > 0 {
		t.Fatalf("with retries enabled %d faults leaked; first: %v", len(res.Leaked), res.Leaked[0])
	}
	// Seed 23 is the one whose dropped DBP reads used to come back as the
	// non-transient "storage: page N: not found" in every run (ROADMAP 0(l)).
	for _, seed := range []int64{99, 23} {
		res := runPlan(t, core.Config{DisableRetry: true}, plan, seed, txPerNode)
		if len(res.Leaked) == 0 {
			t.Fatalf("seed %d: with retries disabled no fault leaked — the retry layer is not what absorbs them", seed)
		}
		for _, err := range res.Leaked {
			if !common.IsTransient(err) {
				t.Fatalf("seed %d: leaked error is not the injected transient class: %v", seed, err)
			}
		}
	}
}

// TestWorkloadUnderLossyPlan turns on response loss for the idempotent
// PLock service plus duplicates and jitter: the re-grant path must absorb
// retried acquires without corrupting lock state.
func TestWorkloadUnderLossyPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy plan run covered by the smoke plan in -short mode")
	}
	if res := runPlan(t, core.Config{}, chaos.LossyPlan(0.03), 7, 100); len(res.Leaked) > 0 {
		t.Fatalf("%d faults leaked; first: %v", len(res.Leaked), res.Leaked[0])
	}
}

// TestWorkloadUnderFailSlowPlans exercises the two fail-slow presets end to
// end: a crawling node and a browning-out store. Nothing crashes, so nothing
// may leak to the app; the cluster must converge once the faults stop; and
// closing the cluster (Spec.Run does) must release every goroutine the
// degraded run parked (retry sleepers, lease loops) — a
// fail-slow window must not strand workers.
func TestWorkloadUnderFailSlowPlans(t *testing.T) {
	txPerNode := 60
	if testing.Short() {
		txPerNode = 25
	}
	for _, plan := range []chaos.Plan{
		chaos.SlowNodePlan(1, 300*time.Microsecond),
		chaos.StalledStoragePlan(200*time.Microsecond, 0.02),
	} {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if res := runPlan(t, core.Config{}, plan, 42, txPerNode); len(res.Leaked) > 0 {
				t.Fatalf("%d faults leaked; first: %v", len(res.Leaked), res.Leaked[0])
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > base {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak after Close: %d live, %d at start\n%s", g, base, buf[:n])
			}
		})
	}
}
