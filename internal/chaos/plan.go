package chaos

import (
	"fmt"
	"time"

	"polardbmp/internal/common"
)

// ActionKind is what an injected fault does to the matched operation.
type ActionKind uint8

const (
	// ActDrop fails the op with ErrInjected without executing it.
	ActDrop ActionKind = iota + 1
	// ActDelay executes the op after extra latency.
	ActDelay
	// ActDuplicate executes an idempotent one-sided READ/WRITE twice.
	ActDuplicate
	// ActDropReply (RPC only) executes the handler but loses the response,
	// exercising retry idempotency on two-sided paths.
	ActDropReply
	// ActCrashNode fail-stops Action.Node (undeclared, via the engine's
	// crash handler) and lets the matched op proceed untouched. Fires at
	// most once regardless of Rule.Max.
	ActCrashNode
)

func (k ActionKind) String() string {
	switch k {
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActDuplicate:
		return "duplicate"
	case ActDropReply:
		return "drop-reply"
	case ActCrashNode:
		return "crashnode"
	}
	return fmt.Sprintf("action(%d)", k)
}

// Action is the fault applied when a rule fires.
type Action struct {
	Kind ActionKind
	// Delay is the injected latency for ActDelay (and an optional extra
	// delay preceding any other kind).
	Delay time.Duration
	// Node is the victim of ActCrashNode.
	Node common.NodeID
}

// Rule is one named fault source: a selector over operations plus a
// probability and an action. Empty selector fields match anything.
type Rule struct {
	// Name identifies the rule in the event log.
	Name string
	// Layer restricts the rule to common.FaultLayerRDMA or
	// common.FaultLayerStorage ("" = both).
	Layer string
	// Classes restricts the op classes (common.FaultRead, ... ; empty = all).
	Classes []string
	// Src / Dst restrict the initiating / target nodes (empty = any).
	Src []common.NodeID
	Dst []common.NodeID
	// Target restricts the region/service name ("" = any).
	Target string
	// Prob is the per-op fault probability in [0, 1].
	Prob float64
	// FromOp / ToOp bound the rule to a global op-index window.
	// ToOp == 0 means "until the end". Op indices are 1-based.
	FromOp, ToOp uint64
	// Max caps the number of injections (0 = unbounded).
	Max uint64
	// Action is what happens when the rule fires.
	Action Action
}

func (r *Rule) matches(op common.FaultOp, idx uint64) bool {
	if idx < r.FromOp || (r.ToOp > 0 && idx > r.ToOp) {
		return false
	}
	if r.Layer != "" && r.Layer != op.Layer {
		return false
	}
	if len(r.Classes) > 0 && !containsStr(r.Classes, op.Class) {
		return false
	}
	if len(r.Src) > 0 && !containsNode(r.Src, op.Src) {
		return false
	}
	if len(r.Dst) > 0 && !containsNode(r.Dst, op.Dst) {
		return false
	}
	if r.Target != "" && r.Target != op.Name {
		return false
	}
	return true
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsNode(xs []common.NodeID, x common.NodeID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Partition is a node↔node reachability schedule: while active, ops whose
// source and destination fall in different groups fail with ErrUnreachable.
// Nodes absent from every group reach everyone (PMFS and storage stay
// reachable unless explicitly listed). The partition heals at ToOp.
type Partition struct {
	Groups       [][]common.NodeID
	FromOp, ToOp uint64 // op-index window; ToOp == 0 means "never heals"
}

func (p *Partition) groupOf(n common.NodeID) int {
	for i, g := range p.Groups {
		if containsNode(g, n) {
			return i
		}
	}
	return -1
}

// blocks reports whether the partition severs src→dst at op index idx.
func (p *Partition) blocks(src, dst common.NodeID, idx uint64) bool {
	if idx < p.FromOp || (p.ToOp > 0 && idx > p.ToOp) {
		return false
	}
	if src == common.AnyNode || dst == common.AnyNode {
		return false // unbound ops cannot be attributed to a side
	}
	gs, gd := p.groupOf(src), p.groupOf(dst)
	return gs >= 0 && gd >= 0 && gs != gd
}

// Plan is a complete fault schedule: named rules plus partition windows.
// The same plan and seed always reproduce the same fault decisions.
type Plan struct {
	Name       string
	Rules      []Rule
	Partitions []Partition
}

// Validate checks rule sanity so a bad plan fails loudly at install time.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if r.Name == "" {
			return fmt.Errorf("chaos: plan %q rule %d has no name", p.Name, i)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("chaos: plan %q rule %q probability %g outside [0,1]",
				p.Name, r.Name, r.Prob)
		}
		if r.Action.Kind < ActDrop || r.Action.Kind > ActCrashNode {
			return fmt.Errorf("chaos: plan %q rule %q has invalid action", p.Name, r.Name)
		}
		if r.Action.Kind == ActDelay && r.Action.Delay <= 0 {
			return fmt.Errorf("chaos: plan %q rule %q delay action without delay", p.Name, r.Name)
		}
		if r.Action.Kind == ActCrashNode && r.Action.Node == 0 {
			return fmt.Errorf("chaos: plan %q rule %q crashnode action without a node", p.Name, r.Name)
		}
	}
	for i, part := range p.Partitions {
		if len(part.Groups) < 2 {
			return fmt.Errorf("chaos: plan %q partition %d needs at least two groups", p.Name, i)
		}
	}
	return nil
}

// --- preset plans -----------------------------------------------------------

// SmokePlan is a light everything-at-once plan for CI: a few percent of
// fabric ops dropped, delayed, or duplicated. Hardened retry paths must
// shrug it off.
func SmokePlan() Plan {
	return Plan{
		Name: "smoke",
		Rules: []Rule{
			{Name: "drop-rpc", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRPC}, Prob: 0.03,
				Action: Action{Kind: ActDrop}},
			{Name: "drop-onesided", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRead, common.FaultWrite, common.FaultAtomic},
				Prob:    0.03, Action: Action{Kind: ActDrop}},
			{Name: "jitter", Layer: common.FaultLayerRDMA, Prob: 0.05,
				Action: Action{Kind: ActDelay, Delay: 200 * time.Microsecond}},
			{Name: "dup-onesided", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRead, common.FaultWrite},
				Prob:    0.02, Action: Action{Kind: ActDuplicate}},
		},
	}
}

// DropPlan drops the given fraction of all fabric ops (request loss).
func DropPlan(prob float64) Plan {
	return Plan{
		Name: "drop",
		Rules: []Rule{
			{Name: "drop-all", Layer: common.FaultLayerRDMA, Prob: prob,
				Action: Action{Kind: ActDrop}},
		},
	}
}

// LossyPlan models a lossy fabric: request loss, response loss on the
// idempotent lock service, duplicates, and latency jitter.
func LossyPlan(prob float64) Plan {
	return Plan{
		Name: "lossy",
		Rules: []Rule{
			{Name: "drop-req", Layer: common.FaultLayerRDMA, Prob: prob,
				Action: Action{Kind: ActDrop}},
			{Name: "lose-plock-reply", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRPC}, Target: "lockfusion.plock",
				Prob: prob / 2, Action: Action{Kind: ActDropReply}},
			{Name: "dup", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRead, common.FaultWrite},
				Prob:    prob, Action: Action{Kind: ActDuplicate}},
			{Name: "jitter", Layer: common.FaultLayerRDMA, Prob: prob,
				Action: Action{Kind: ActDelay, Delay: 100 * time.Microsecond}},
		},
	}
}

// SlowNodePlan makes every fabric op touching node crawl (a degraded NIC
// or an overloaded host).
func SlowNodePlan(node common.NodeID, delay time.Duration) Plan {
	return Plan{
		Name: "slownode",
		Rules: []Rule{
			{Name: "slow-to", Layer: common.FaultLayerRDMA,
				Dst: []common.NodeID{node}, Prob: 1,
				Action: Action{Kind: ActDelay, Delay: delay}},
			{Name: "slow-from", Layer: common.FaultLayerRDMA,
				Src: []common.NodeID{node}, Prob: 1,
				Action: Action{Kind: ActDelay, Delay: delay}},
		},
	}
}

// StalledStoragePlan stalls a fraction of storage I/O (a brownout of the
// disaggregated store) and fails a smaller fraction of page reads.
func StalledStoragePlan(stall time.Duration, dropProb float64) Plan {
	return Plan{
		Name: "stalledstorage",
		Rules: []Rule{
			{Name: "stall-io", Layer: common.FaultLayerStorage, Prob: 1,
				Action: Action{Kind: ActDelay, Delay: stall}},
			{Name: "fail-pageread", Layer: common.FaultLayerStorage,
				Classes: []string{common.FaultPageRead}, Prob: dropProb,
				Action: Action{Kind: ActDrop}},
		},
	}
}

// BrownoutPlan models a gray-failure brownout: nothing crashes and nothing
// partitions — everything just gets slow. A fraction of storage I/O stalls,
// every fabric op touching one node crawls (a degraded NIC; heartbeats keep
// flowing, so the node is fail-slow, never fail-stopped), and a small
// fraction of one-sided DBP frame reads stall hard (a bimodal tail: a DBP
// read is never raced, so a stalled one costs its transaction the stall and
// the deadline budget must absorb it). The deadline budgets must keep
// goodput up and tail latency bounded under this plan.
func BrownoutPlan(slow common.NodeID, linkDelay, storageStall, dbpStall time.Duration) Plan {
	return Plan{
		Name: "brownout",
		Rules: []Rule{
			{Name: "stall-storage", Layer: common.FaultLayerStorage, Prob: 0.2,
				Action: Action{Kind: ActDelay, Delay: storageStall}},
			{Name: "slow-link-to", Layer: common.FaultLayerRDMA,
				Dst: []common.NodeID{slow}, Prob: 1,
				Action: Action{Kind: ActDelay, Delay: linkDelay}},
			{Name: "slow-link-from", Layer: common.FaultLayerRDMA,
				Src: []common.NodeID{slow}, Prob: 1,
				Action: Action{Kind: ActDelay, Delay: linkDelay}},
			{Name: "stall-dbp-read", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRead}, Target: "pmfs.dbp", Prob: 0.05,
				Action: Action{Kind: ActDelay, Delay: dbpStall}},
		},
	}
}

// CrashNodePlan fail-stops node once the global op index reaches atOp — an
// undeclared mid-workload crash. The harness must install a crash handler
// (Engine.SetCrashHandler) and is expected to let the cluster's lease-based
// failure detection notice and recover, not to intervene itself.
func CrashNodePlan(node common.NodeID, atOp uint64) Plan {
	return Plan{
		Name: "crashnode",
		Rules: []Rule{
			{Name: "crash-node", FromOp: atOp, Prob: 1, Max: 1,
				Action: Action{Kind: ActCrashNode, Node: node}},
		},
	}
}

// PmfsFailoverPlan fail-stops one replica of the replicated shared-memory
// tier once the global op index reaches atOp, under light fabric noise (the
// drops and jitter exercise the duplicate-suppression and retry paths while
// the failover is in flight). The harness's crash handler routes the
// ActCrashNode on common.PMFSNode to Cluster.KillPMFSReplica instead of a
// database-node kill. Invariants the harness must gate on: zero lost
// committed transactions, a TSO that stays monotonic across the failover
// (all commit CSNs distinct), and a pmfs epoch that advances exactly once.
func PmfsFailoverPlan(atOp uint64) Plan {
	return Plan{
		Name: "pmfsfailover",
		Rules: []Rule{
			{Name: "kill-replica", FromOp: atOp, Prob: 1, Max: 1,
				Action: Action{Kind: ActCrashNode, Node: common.PMFSNode}},
			{Name: "drop-verbs", Layer: common.FaultLayerRDMA, Prob: 0.01,
				Classes: []string{common.FaultRead, common.FaultWrite, common.FaultRPC},
				Action:  Action{Kind: ActDrop}},
			{Name: "jitter", Layer: common.FaultLayerRDMA, Prob: 0.05,
				Action: Action{Kind: ActDelay, Delay: 200 * time.Microsecond}},
		},
	}
}

// ElasticPlan is light fabric noise for topology-churn runs: while an
// orchestrator joins and drains nodes under load, a trickle of dropped verbs
// and latency jitter keeps the retry paths honest. The faults are deliberately
// mild — the thing under test is the elasticity invariant (zero transactions
// aborted for membership reasons during a graceful drain), and heavy loss
// would drown it in ordinary retry noise.
func ElasticPlan() Plan {
	return Plan{
		Name: "elastic",
		Rules: []Rule{
			{Name: "drop-verbs", Layer: common.FaultLayerRDMA, Prob: 0.01,
				Classes: []string{common.FaultRead, common.FaultWrite, common.FaultRPC},
				Action:  Action{Kind: ActDrop}},
			{Name: "jitter", Layer: common.FaultLayerRDMA, Prob: 0.05,
				Action: Action{Kind: ActDelay, Delay: 200 * time.Microsecond}},
		},
	}
}

// PartitionPlan splits the fabric into two reachability groups for the op
// window [fromOp, toOp], healing afterwards.
func PartitionPlan(a, b []common.NodeID, fromOp, toOp uint64) Plan {
	return Plan{
		Name: "partition",
		Partitions: []Partition{
			{Groups: [][]common.NodeID{a, b}, FromOp: fromOp, ToOp: toOp},
		},
	}
}

// PresetPlan resolves a plan by name (the cmd/mpchaos -plan values).
func PresetPlan(name string) (Plan, error) {
	switch name {
	case "smoke":
		return SmokePlan(), nil
	case "drop":
		return DropPlan(0.05), nil
	case "lossy":
		return LossyPlan(0.05), nil
	case "slownode":
		return SlowNodePlan(1, 500*time.Microsecond), nil
	case "stalledstorage":
		return StalledStoragePlan(300*time.Microsecond, 0.02), nil
	case "elastic":
		return ElasticPlan(), nil
	case "none":
		return Plan{Name: "none"}, nil
	default:
		return Plan{}, fmt.Errorf("chaos: unknown preset plan %q", name)
	}
}
