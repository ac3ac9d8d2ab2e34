package rdma_test

import (
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/membership"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/txfusion"
)

// TestConnConventionPerComponent is the nesting check, one row per component:
// under a drop-everything injector one API call costs exactly its policy's
// attempts — the fabric's Conn policy for the fusion clients and the agent,
// the uplink's own policy for storage.Remote (3 attempts, not 3×5).
func TestConnConventionPerComponent(t *testing.T) {
	const attempts = 5
	f := rdma.NewFabric(rdma.Latency{})
	f.SetConnRetry(common.RetryPolicy{MaxAttempts: attempts, BaseDelay: 10 * time.Microsecond, MaxDelay: 50 * time.Microsecond})
	pmfs := f.Register(common.PMFSNode)
	store := storage.New(storage.Latency{})
	txfusion.NewServer(pmfs, f)
	lockfusion.NewServer(pmfs, f)
	bufferfusion.NewServer(pmfs, f, store, 16)
	membership.NewTable(pmfs)
	storage.Serve(pmfs, store)

	ep := f.Register(1)
	tf := txfusion.NewClient(ep, f, txfusion.Config{})
	pl := lockfusion.NewPLockClient(ep, f, lockfusion.Config{})
	rl := lockfusion.NewRLockClient(ep, f, tf, lockfusion.Config{})
	lbp := bufferfusion.NewClient(ep, f, store, 16)
	agent := membership.NewAgent(1, common.PMFSNode, f, nil, membership.Config{})
	remote := storage.NewRemote(f.From(1))
	remote.SetRetryPolicy(common.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond, MaxDelay: 50 * time.Microsecond})

	// State the rows start from: a retained PLock to release, an RLock holder
	// and waiter on this node (so the ref flag is a local write), and a log
	// tail for the uplink to ship.
	if err := pl.Acquire(2, lockfusion.ModeX); err != nil {
		t.Fatal(err)
	}
	pl.Release(2)
	holder, _ := tf.Begin(1)
	waiter, _ := tf.Begin(2)
	remote.LogAppend(1, []byte("redo"))

	for _, row := range []struct {
		name string
		call func()
		want int64
	}{
		{"txfusion.CurrentReadCSN", func() { _, _ = tf.CurrentReadCSN() }, attempts},
		{"bufferfusion lookup", func() { _, _ = lbp.Get(9) }, attempts},
		{"PLock acquire", func() { _ = pl.Acquire(1, lockfusion.ModeX) }, attempts},
		{"PLock release", pl.ReleaseAll, attempts},
		{"RLock wait", func() { _ = rl.WaitFor(waiter, holder) }, attempts},
		{"Agent.Join", func() { _ = agent.Join() }, attempts},
		{"storage.Remote LogSync", func() { remote.LogSync(1) }, 3},
	} {
		var n atomic.Int64
		f.SetInjector(func(op common.FaultOp) common.FaultDecision {
			if op.Src != 1 {
				return common.FaultDecision{}
			}
			n.Add(1)
			return common.FaultDecision{Err: common.ErrInjected}
		})
		row.call()
		f.SetInjector(nil)
		if n.Load() != row.want {
			t.Errorf("%s: %d attempts under a drop-everything fabric, want %d", row.name, n.Load(), row.want)
		}
	}
}
