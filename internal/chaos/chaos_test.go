package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
)

// syntheticOps builds a deterministic mixed op stream: three nodes issuing
// reads, writes, atomics and RPCs against PMFS and each other.
func syntheticOps(n int) []common.FaultOp {
	classes := []string{common.FaultRead, common.FaultWrite, common.FaultAtomic, common.FaultRPC}
	names := []string{"tit", "dbp", "tso", "lockfusion.plock"}
	ops := make([]common.FaultOp, n)
	for i := range ops {
		ops[i] = common.FaultOp{
			Layer: common.FaultLayerRDMA,
			Class: classes[i%len(classes)],
			Src:   common.NodeID(i%3 + 1),
			Dst:   common.PMFSNode,
			Name:  names[i%len(names)],
			Len:   64,
		}
	}
	return ops
}

// TestSeedDeterminism is the acceptance test of the subsystem: the same
// seed and plan over the same op sequence produce an identical event log,
// and a different seed produces a different one.
func TestSeedDeterminism(t *testing.T) {
	ops := syntheticOps(4000)
	run := func(seed int64) ([]Event, uint64) {
		e := MustNew(seed, SmokePlan())
		inj := e.Injector()
		for _, op := range ops {
			inj(op)
		}
		return e.Events(), e.Fingerprint()
	}
	ev1, fp1 := run(42)
	ev2, fp2 := run(42)
	if len(ev1) == 0 {
		t.Fatal("smoke plan injected nothing over 4000 ops")
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("same seed, different event logs: %d vs %d events", len(ev1), len(ev2))
	}
	if fp1 != fp2 {
		t.Fatalf("same seed, different fingerprints: %x vs %x", fp1, fp2)
	}
	if _, fp3 := run(43); fp3 == fp1 {
		t.Fatal("different seed produced an identical fault log")
	}
}

// TestConcurrentDeterminism verifies the replay property that motivates
// per-descriptor occurrence hashing: when the same per-node op streams are
// interleaved differently by the scheduler, the canonical event log and
// fingerprint still match a serial run exactly.
func TestConcurrentDeterminism(t *testing.T) {
	const perNode = 1500
	streams := make([][]common.FaultOp, 3)
	for nid := range streams {
		for i := 0; i < perNode; i++ {
			streams[nid] = append(streams[nid], common.FaultOp{
				Layer: common.FaultLayerRDMA,
				Class: []string{common.FaultRead, common.FaultWrite, common.FaultRPC}[i%3],
				Src:   common.NodeID(nid + 1),
				Dst:   common.PMFSNode,
				Name:  "tit",
			})
		}
	}
	// Rules with op-index windows would break this property by design, so
	// use a windowless plan.
	plan := SmokePlan()

	serial := MustNew(7, plan)
	injS := serial.Injector()
	for _, st := range streams {
		for _, op := range st {
			injS(op)
		}
	}

	conc := MustNew(7, plan)
	injC := conc.Injector()
	var wg sync.WaitGroup
	for _, st := range streams {
		st := st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range st {
				injC(op)
			}
		}()
	}
	wg.Wait()

	if serial.Fingerprint() != conc.Fingerprint() {
		t.Fatalf("interleaving changed the fault log: serial %d events fp=%x, concurrent %d events fp=%x",
			len(serial.Events()), serial.Fingerprint(), len(conc.Events()), conc.Fingerprint())
	}
	cs, cc := serial.CanonicalEvents(), conc.CanonicalEvents()
	if len(cs) != len(cc) {
		t.Fatalf("canonical log lengths differ: %d vs %d", len(cs), len(cc))
	}
	for i := range cs {
		// OpIndex is interleaving-dependent; everything else must match.
		cs[i].OpIndex, cc[i].OpIndex = 0, 0
		if !reflect.DeepEqual(cs[i], cc[i]) {
			t.Fatalf("canonical event %d differs: %+v vs %+v", i, cs[i], cc[i])
		}
	}
}

// TestRuleWindowAndMax checks FromOp/ToOp windows and the Max cap.
func TestRuleWindowAndMax(t *testing.T) {
	plan := Plan{
		Name: "windowed",
		Rules: []Rule{
			{Name: "mid", Prob: 1, FromOp: 10, ToOp: 20, Action: Action{Kind: ActDrop}},
			{Name: "capped", Prob: 1, FromOp: 30, Max: 5, Action: Action{Kind: ActDrop}},
		},
	}
	e := MustNew(1, plan)
	inj := e.Injector()
	op := common.FaultOp{Layer: common.FaultLayerRDMA, Class: common.FaultRead, Src: 1, Dst: 2, Name: "x"}
	for i := 0; i < 100; i++ {
		inj(op)
	}
	var mid, capped int
	for _, ev := range e.Events() {
		switch ev.Rule {
		case "mid":
			mid++
			if ev.OpIndex < 10 || ev.OpIndex > 20 {
				t.Fatalf("rule %q fired outside its window at op %d", ev.Rule, ev.OpIndex)
			}
		case "capped":
			capped++
		}
	}
	if mid != 11 {
		t.Fatalf("windowed rule fired %d times, want 11", mid)
	}
	if capped != 5 {
		t.Fatalf("capped rule fired %d times, want 5", capped)
	}
}

// TestRuleSelectors checks layer/class/node/target filtering.
func TestRuleSelectors(t *testing.T) {
	plan := Plan{
		Name: "selective",
		Rules: []Rule{
			{Name: "only-n2-plock", Layer: common.FaultLayerRDMA,
				Classes: []string{common.FaultRPC}, Src: []common.NodeID{2},
				Target: "lockfusion.plock", Prob: 1, Action: Action{Kind: ActDrop}},
		},
	}
	e := MustNew(1, plan)
	inj := e.Injector()
	match := common.FaultOp{Layer: common.FaultLayerRDMA, Class: common.FaultRPC,
		Src: 2, Dst: common.PMFSNode, Name: "lockfusion.plock"}
	if d := inj(match); !errors.Is(d.Err, common.ErrInjected) {
		t.Fatalf("matching op not dropped: %+v", d)
	}
	for _, miss := range []common.FaultOp{
		{Layer: common.FaultLayerStorage, Class: common.FaultRPC, Src: 2, Name: "lockfusion.plock"},
		{Layer: common.FaultLayerRDMA, Class: common.FaultRead, Src: 2, Name: "lockfusion.plock"},
		{Layer: common.FaultLayerRDMA, Class: common.FaultRPC, Src: 1, Name: "lockfusion.plock"},
		{Layer: common.FaultLayerRDMA, Class: common.FaultRPC, Src: 2, Name: "bufferfusion"},
	} {
		if d := inj(miss); d.Err != nil || d.Duplicate || d.DropReply {
			t.Fatalf("non-matching op faulted: %+v -> %+v", miss, d)
		}
	}
}

// TestPartition checks the reachability matrix: cross-group ops fail with
// ErrUnreachable inside the window, heal after it, and unlisted nodes
// (PMFS, storage) stay reachable throughout.
func TestPartition(t *testing.T) {
	plan := PartitionPlan([]common.NodeID{1}, []common.NodeID{2, 3}, 1, 50)
	e := MustNew(1, plan)
	inj := e.Injector()

	cross := common.FaultOp{Layer: common.FaultLayerRDMA, Class: common.FaultRPC, Src: 1, Dst: 2, Name: "x"}
	same := common.FaultOp{Layer: common.FaultLayerRDMA, Class: common.FaultRPC, Src: 2, Dst: 3, Name: "x"}
	toPMFS := common.FaultOp{Layer: common.FaultLayerRDMA, Class: common.FaultRead, Src: 1, Dst: common.PMFSNode, Name: "tso"}

	if d := inj(cross); !errors.Is(d.Err, common.ErrUnreachable) {
		t.Fatalf("cross-partition op not blocked: %+v", d)
	}
	if d := inj(same); d.Err != nil {
		t.Fatalf("same-group op blocked: %v", d.Err)
	}
	if d := inj(toPMFS); d.Err != nil {
		t.Fatalf("PMFS op blocked by a partition that does not list it: %v", d.Err)
	}
	// Burn past the window, then the cut heals.
	for e.OpCount() < 50 {
		inj(same)
	}
	if d := inj(cross); d.Err != nil {
		t.Fatalf("partition did not heal after ToOp: %v", d.Err)
	}
	// The block shows up in the event log as a partition event.
	var parts int
	for _, ev := range e.Events() {
		if ev.Rule == "partition" && ev.Action == "unreachable" {
			parts++
		}
	}
	if parts != 1 {
		t.Fatalf("partition events = %d, want 1", parts)
	}
}

// TestPlanValidation rejects malformed plans.
func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Name: "p", Rules: []Rule{{Prob: 0.5, Action: Action{Kind: ActDrop}}}},             // no name
		{Name: "p", Rules: []Rule{{Name: "r", Prob: 1.5, Action: Action{Kind: ActDrop}}}},  // prob > 1
		{Name: "p", Rules: []Rule{{Name: "r", Prob: 0.5}}},                                 // no action
		{Name: "p", Rules: []Rule{{Name: "r", Prob: 0.5, Action: Action{Kind: ActDelay}}}}, // delay without duration
		{Name: "p", Partitions: []Partition{{Groups: [][]common.NodeID{{1}}}}},             // one group
	}
	for i, p := range bad {
		if _, err := New(1, p); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	for _, name := range []string{"smoke", "drop", "lossy", "slownode", "stalledstorage", "none"} {
		p, err := PresetPlan(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
	if _, err := PresetPlan("bogus"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestInstallOnFabricAndStore wires an engine to a real fabric and store
// and checks both layers consult it and log attributed events.
func TestInstallOnFabricAndStore(t *testing.T) {
	f := rdma.NewFabric(rdma.Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 64)
	st := storage.New(storage.Latency{})
	id := st.AllocPage()
	if err := st.WritePage(id, []byte("img")); err != nil {
		t.Fatal(err)
	}

	e := MustNew(3, Plan{Name: "all", Rules: []Rule{
		{Name: "drop-everything", Prob: 1, Action: Action{Kind: ActDrop}},
	}})
	e.Install(f, st)
	if err := f.From(1).Write64(1, "mem", 0, 1); !errors.Is(err, common.ErrInjected) {
		t.Fatalf("fabric op not injected: %v", err)
	}
	if _, err := st.ReadPage(id); !errors.Is(err, common.ErrInjected) {
		t.Fatalf("storage op not injected: %v", err)
	}
	layers := map[string]bool{}
	for _, ev := range e.Events() {
		layers[ev.Op.Layer] = true
	}
	if !layers[common.FaultLayerRDMA] || !layers[common.FaultLayerStorage] {
		t.Fatalf("event log missing a layer: %v", layers)
	}

	Uninstall(f, st)
	before := e.OpCount()
	if err := f.From(1).Write64(1, "mem", 0, 1); err != nil {
		t.Fatalf("post-uninstall fabric op: %v", err)
	}
	if _, err := st.ReadPage(id); err != nil {
		t.Fatalf("post-uninstall storage op: %v", err)
	}
	if e.OpCount() != before {
		t.Fatal("engine still consulted after Uninstall")
	}
}

// TestDelayAction measures that ActDelay actually stalls the op.
func TestDelayAction(t *testing.T) {
	e := MustNew(1, Plan{Name: "slow", Rules: []Rule{
		{Name: "stall", Prob: 1, Action: Action{Kind: ActDelay, Delay: 5 * time.Millisecond}},
	}})
	f := rdma.NewFabric(rdma.Latency{})
	ep := f.Register(1)
	ep.RegisterRegion("mem", 8)
	e.Install(f, nil)
	start := time.Now()
	if err := f.From(1).Write64(1, "mem", 0, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delayed op finished in %v", d)
	}
}

// TestTimelineRendering sanity-checks the human-readable outputs.
func TestTimelineRendering(t *testing.T) {
	e := MustNew(9, Plan{Name: "tl", Rules: []Rule{
		{Name: "r", Prob: 1, Max: 2, Action: Action{Kind: ActDrop}},
	}})
	inj := e.Injector()
	for i := 0; i < 5; i++ {
		inj(common.FaultOp{Layer: common.FaultLayerRDMA, Class: common.FaultRead, Src: 1, Dst: 2, Name: "m"})
	}
	tl := e.Timeline()
	want := fmt.Sprintf("chaos plan %q seed 9: 2 faults over 5 ops", "tl")
	if len(tl) == 0 || tl[:len(want)] != want {
		t.Fatalf("timeline header = %q", tl)
	}
}
