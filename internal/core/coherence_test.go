package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/page"
)

// Page coherence (DESIGN.md §4, "Validity travels with the lock"): a node
// reads a page only under its PLock, and the grant that brings the lock names
// the page's newest released LLSN. These tests drop the messages that carry
// that truth and check that no read under a granted PLock returns a value
// older than the last acknowledged commit, and that no acknowledged commit is
// lost.

// TestDroppedInvalidationLosesNoCommit is ROADMAP 0(m): node 2 caches k=v1,
// node 1 commits v2, and every PLock verb to or from node 2 is dropped for
// 100 ms while node 2 reads. Its copy's validity rides those verbs — the
// grant's LLSN, the revoke, the release — so losing them may fail or delay
// the read, but it must never be served v1; and a read-modify-write there
// afterwards must not overwrite the acknowledged v2.
func TestDroppedInvalidationLosesNoCommit(t *testing.T) {
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			c := NewCluster(Config{LockWaitTimeout: 2 * time.Second, RecycleInterval: 5 * time.Millisecond, CC: cc})
			t.Cleanup(c.Close)
			for i := 0; i < 2; i++ {
				if _, err := c.AddNode(); err != nil {
					t.Fatal(err)
				}
			}
			sp, err := c.CreateSpace("t")
			if err != nil {
				t.Fatal(err)
			}
			n1, n2 := c.Node(1), c.Node(2)
			put(t, n1, sp, "k", "v1")
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v1" {
				t.Fatalf("node 2 first read = %q, %v", v, err)
			}
			put(t, n1, sp, "k", "v2")

			var drop atomic.Bool
			var dropped atomic.Int64
			drop.Store(true)
			c.Fabric().SetInjector(func(op common.FaultOp) common.FaultDecision {
				if op.Class == common.FaultRPC && (op.Name == lockfusion.ServicePLock || op.Name == lockfusion.ServiceRevoke) &&
					(op.Src == 2 || op.Dst == 2) && drop.Load() {
					dropped.Add(1)
					return common.FaultDecision{Err: common.ErrInjected}
				}
				return common.FaultDecision{}
			})
			type read struct {
				v   string
				err error
			}
			got := make(chan read, 1)
			go func() {
				// A read the blackout fails is not a stale read: retry it,
				// as a client would, until it gets an answer.
				deadline := time.Now().Add(5 * time.Second)
				for {
					tx, err := n2.Begin()
					if err != nil {
						got <- read{err: err}
						return
					}
					v, err := tx.Get(sp, []byte("k"))
					_ = tx.Commit()
					if err == nil || time.Now().After(deadline) {
						got <- read{string(v), err}
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}()
			var r read
			select {
			case r = <-got:
				if r.v == "v1" {
					t.Errorf("stale read: node 2 was served v1 with %d PLock verbs to or from it dropped", dropped.Load())
				}
			case <-time.After(100 * time.Millisecond):
				drop.Store(false)
				r = <-got
			}
			drop.Store(false)
			c.Fabric().SetInjector(nil)
			if r.err != nil || r.v != "v2" {
				t.Errorf("stale read: node 2 read %q, %v; want v2", r.v, r.err)
			}

			tx, err := n2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			cur, err := tx.GetForUpdate(sp, []byte("k"))
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(sp, []byte("k"), append(cur, "+x"...)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("lost update: node 2's read-modify-write: %v", err)
			}
			for _, n := range []*Node{n1, n2} {
				if v, err := get(t, n, sp, "k"); err != nil || v != "v2+x" {
					t.Errorf("lost update: node %d reads %q, %v; want v2+x", n.ID(), v, err)
				}
			}
		})
	}
}

// coherenceCluster is a two-node cluster with a DBP small enough to be one
// stripe, so pushes recycle each other's frames in LRU order.
func coherenceCluster(t *testing.T, cc string, dbpFrames int) (*Cluster, common.SpaceID) {
	t.Helper()
	c := NewCluster(Config{LockWaitTimeout: 2 * time.Second, RecycleInterval: 5 * time.Millisecond, CC: cc, DBPFrames: dbpFrames})
	t.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := c.CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	return c, sp
}

// leafOf returns the id of the leaf holding key.
func leafOf(t *testing.T, n *Node, sp common.SpaceID, key string) common.PageID {
	t.Helper()
	tr, err := n.tree(sp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tr.LeafSafe([]byte(key), lockfusion.ModeS)
	if err != nil {
		t.Fatal(err)
	}
	defer n.releasePager(ref)
	return ref.Page.ID
}

// rmw has n append suffix to k's value in one transaction and returns the
// new value, committed.
func rmw(t *testing.T, n *Node, sp common.SpaceID, suffix string) string {
	t.Helper()
	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := tx.GetForUpdate(sp, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	v := string(cur) + suffix
	if err := tx.Update(sp, []byte("k"), []byte(v)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("node %d read-modify-write: %v", n.ID(), err)
	}
	return v
}

// TestEvictionDropServesNoStaleCopy: node 2 caches P, P is evicted from a
// small DBP while every one-sided write to node 2 is dropped, node 1 then
// commits to P, and node 2 reads. Under invalid flags the eviction's
// "dropped" notice was the only message that could reach node 2's copy, and
// P's copy set left with its directory entry, so node 2 served the old value
// forever. The grant of node 2's next lock names node 1's LLSN.
func TestEvictionDropServesNoStaleCopy(t *testing.T) {
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			c, sp := coherenceCluster(t, cc, 16)
			n1, n2 := c.Node(1), c.Node(2)
			put(t, n1, sp, "k", "v1")
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v1" {
				t.Fatalf("node 2 first read = %q, %v", v, err)
			}
			p := leafOf(t, n2, sp, "k")

			// A second table, several times the DBP, written by node 1 and
			// read by node 2: node 1's pushes churn every frame.
			other, err := c.CreateSpace("other")
			if err != nil {
				t.Fatal(err)
			}
			row := strings.Repeat("x", 2048)
			for i := 0; i < 240; i += 20 {
				tx, err := n1.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for j := i; j < i+20; j++ {
					if err := tx.Upsert(other, []byte(fmt.Sprintf("r%04d", j)), []byte(row)); err != nil {
						t.Fatal(err)
					}
				}
				mustCommit(t, tx)
			}
			var dropped atomic.Int64
			c.Fabric().SetInjector(func(op common.FaultOp) common.FaultDecision {
				if op.Class == common.FaultWrite && op.Dst == 2 {
					dropped.Add(1)
					return common.FaultDecision{Err: common.ErrInjected}
				}
				return common.FaultDecision{}
			})
			for j := 0; j < 240; j++ {
				if _, err := get(t, n2, other, fmt.Sprintf("r%04d", j)); err != nil {
					t.Fatal(err)
				}
			}
			c.Fabric().SetInjector(nil)
			if c.bufSrv.Contains(p) {
				t.Fatalf("page %d survived a flood of a 16-frame DBP", p)
			}

			put(t, n1, sp, "k", "v2")
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v2" {
				t.Fatalf("stale read: node 2 read %q, %v after node 1 committed v2 (%d writes to node 2 dropped)", v, err, dropped.Load())
			}
			want := rmw(t, n2, sp, "+x")
			for _, n := range []*Node{n1, n2} {
				if v, err := get(t, n, sp, "k"); err != nil || v != want {
					t.Errorf("lost update: node %d reads %q, %v; want %q", n.ID(), v, err, want)
				}
			}
		})
	}
}

// TestTakeoverRefreshesCachedCopy pins the takeover rule (DESIGN.md §4): node
// 2 caches P, node 1 commits to P under an X lock it keeps without pushing,
// and node 1 dies. Node 1 never released P, so no release names the version
// its replay rebuilds; lifting the fence marks the version unknown, and node
// 2's next grant sends its copy to the rebuilt image.
func TestTakeoverRefreshesCachedCopy(t *testing.T) {
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			c := NewCluster(Config{
				LockWaitTimeout:    2 * time.Second,
				RecycleInterval:    5 * time.Millisecond,
				CC:                 cc,
				SelfHeal:           true,
				LeaseRenewInterval: 10 * time.Millisecond,
				LeaseTimeout:       400 * time.Millisecond,
			})
			t.Cleanup(c.Close)
			for i := 0; i < 2; i++ {
				if _, err := c.AddNode(); err != nil {
					t.Fatal(err)
				}
			}
			sp, err := c.CreateSpace("t")
			if err != nil {
				t.Fatal(err)
			}
			n1, n2 := c.Node(1), c.Node(2)
			put(t, n1, sp, "k", "v1")
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v1" {
				t.Fatalf("node 2 first read = %q, %v", v, err)
			}
			put(t, n1, sp, "k", "v2")
			p := leafOf(t, n1, sp, "k")
			if n1.pl.HeldMode(p) != lockfusion.ModeX {
				t.Fatalf("node 1 does not hold page %d in X", p)
			}
			if err := c.KillNode(1); err != nil {
				t.Fatal(err)
			}
			waitTakeovers(t, c, 1)
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v2" {
				t.Fatalf("node 2 reads %q, %v after the takeover; want the replayed v2", v, err)
			}
			want := rmw(t, n2, sp, "+x")
			if v, err := get(t, n2, sp, "k"); err != nil || v != want {
				t.Errorf("lost update: node 2 reads %q, %v; want %q", v, err, want)
			}
		})
	}
}

// TestUnloggedChangeAdvancesLLSN pins the unlogged-change rule (DESIGN.md
// §4): a purge writes no redo record, yet the page must take a fresh LLSN,
// or a peer's copy from before the purge would match the version the purger
// releases and never refresh. Node 2 caches k's ten-version chain, node 1
// purges it to one, and node 2's next read must see the purged page.
func TestUnloggedChangeAdvancesLLSN(t *testing.T) {
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			c, sp := coherenceCluster(t, cc, 64)
			n1, n2 := c.Node(1), c.Node(2)
			for i := 0; i < 10; i++ {
				put(t, n1, sp, "k", fmt.Sprintf("v%d", i))
			}
			chain := func(n *Node) int {
				tr, err := n.tree(sp)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := tr.LeafSafe([]byte("k"), lockfusion.ModeS)
				if err != nil {
					t.Fatal(err)
				}
				defer n.releasePager(ref)
				return len(ref.Page.Find([]byte("k")).Versions)
			}
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v9" {
				t.Fatalf("node 2 first read = %q, %v", v, err)
			}
			if got := chain(n2); got != 10 {
				t.Fatalf("node 2 caches %d versions of k, want 10", got)
			}
			removed := 0
			for deadline := time.Now().Add(5 * time.Second); removed == 0; {
				for _, n := range []*Node{n1, n2} {
					if _, err := n.tf.ReportMinView(); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if removed, err = n1.PurgeSpace(sp); err != nil {
					t.Fatal(err)
				}
				if time.Now().After(deadline) {
					t.Fatal("nothing purged in 5s")
				}
			}
			if v, err := get(t, n2, sp, "k"); err != nil || v != "v9" {
				t.Fatalf("node 2 reads %q, %v after the purge", v, err)
			}
			if got, want := chain(n2), chain(n1); got != want {
				t.Fatalf("node 2's copy keeps %d versions of k after node 1 purged the page to %d", got, want)
			}
		})
	}
}

// dropCase drops one message of a page hand-off, once.
type dropCase struct {
	name   string
	reader bool // dropped while node 2 reads, not while node 1 writes
	match  func(op common.FaultOp) bool
	nth    int64 // which matching message to drop (1-based)
	reply  bool  // drop the reply after the handler ran, not the request
}

func rpcFrom(service string, src common.NodeID) func(common.FaultOp) bool {
	return func(op common.FaultOp) bool {
		return op.Class == common.FaultRPC && op.Name == service && op.Src == src
	}
}

func revokeTo(dst common.NodeID) func(common.FaultOp) bool {
	return func(op common.FaultOp) bool {
		return op.Class == common.FaultRPC && op.Name == lockfusion.ServiceRevoke && op.Dst == dst
	}
}

func dbpVerb(class string, src common.NodeID) func(common.FaultOp) bool {
	return func(op common.FaultOp) bool {
		return op.Class == class && op.Name == bufferfusion.RegionDBP && op.Src == src
	}
}

// TestSingleDropTable walks one page through writer → evictor → reader and
// drops each message of the hand-off once. The writer (node 1) commits a
// read-modify-write of k: acquire X (revoking node 2's S), modify, commit.
// The evictor pushes a DBP's worth of fresh pages from node 2, recycling P's
// frame. The reader (node 2) reads k: its S acquire revokes node 1, which
// pushes P (prepare, DBP write, pushed) and releases with P's LLSN; the grant
// finds node 2's copy stale, and its refresh misses the recycled frame and
// fetches (lookup, DBP read). No read may return a value older than the last
// acknowledged commit, and no acknowledged commit may be lost.
func TestSingleDropTable(t *testing.T) {
	cases := []dropCase{
		{name: "writer acquire request", match: rpcFrom(lockfusion.ServicePLock, 1), nth: 1},
		{name: "writer acquire reply", match: rpcFrom(lockfusion.ServicePLock, 1), nth: 1, reply: true},
		{name: "writer revoke", match: revokeTo(2), nth: 1},
		{name: "revoke", reader: true, match: revokeTo(1), nth: 1},
		{name: "release", reader: true, match: rpcFrom(lockfusion.ServicePLock, 1), nth: 1},
		{name: "acquire request", reader: true, match: rpcFrom(lockfusion.ServicePLock, 2), nth: 1},
		{name: "acquire reply", reader: true, match: rpcFrom(lockfusion.ServicePLock, 2), nth: 1, reply: true},
		{name: "prepare", reader: true, match: rpcFrom(bufferfusion.ServiceBuf, 1), nth: 1},
		{name: "DBP write", reader: true, match: dbpVerb(common.FaultWrite, 1), nth: 1},
		{name: "pushed", reader: true, match: rpcFrom(bufferfusion.ServiceBuf, 1), nth: 2},
		{name: "pushed reply", reader: true, match: rpcFrom(bufferfusion.ServiceBuf, 1), nth: 2, reply: true},
		{name: "lookup", reader: true, match: rpcFrom(bufferfusion.ServiceBuf, 2), nth: 1},
		{name: "DBP read", reader: true, match: dbpVerb(common.FaultRead, 2), nth: 1},
	}
	for _, cc := range []string{CC2PL, CCOCC} {
		for _, dc := range cases {
			t.Run(cc+"/"+strings.ReplaceAll(dc.name, " ", "_"), func(t *testing.T) {
				runSingleDrop(t, cc, dc)
			})
		}
	}
}

func runSingleDrop(t *testing.T, cc string, dc dropCase) {
	const dbpFrames = 32
	c, sp := coherenceCluster(t, cc, dbpFrames)
	n1, n2 := c.Node(1), c.Node(2)
	put(t, n1, sp, "k", "v1")
	if v, err := get(t, n2, sp, "k"); err != nil || v != "v1" {
		t.Fatalf("node 2 first read = %q, %v", v, err)
	}

	var armed atomic.Bool
	var seen, fired atomic.Int64
	c.Fabric().SetInjector(func(op common.FaultOp) common.FaultDecision {
		if !armed.Load() || !dc.match(op) || seen.Add(1) != dc.nth {
			return common.FaultDecision{}
		}
		fired.Add(1)
		if dc.reply {
			return common.FaultDecision{DropReply: true}
		}
		return common.FaultDecision{Err: common.ErrInjected}
	})
	armed.Store(!dc.reader)
	acked := rmw(t, n1, sp, "+w")
	armed.Store(false)

	// Evictor: a DBP's worth of fresh pages pushed from node 2 recycles
	// every unpinned frame, P's among them.
	for i := 0; i < dbpFrames; i++ {
		f, err := n2.lbp.NewPage(page.New(c.store.AllocPage(), sp, page.TypeLeaf))
		if err != nil {
			t.Fatal(err)
		}
		f.Mu.Lock()
		err = n2.lbp.Push(f)
		f.Mu.Unlock()
		n2.lbp.Unpin(f)
		if err != nil {
			t.Fatal(err)
		}
	}

	armed.Store(dc.reader)
	v, err := get(t, n2, sp, "k")
	armed.Store(false)
	if fired.Load() != 1 {
		t.Fatalf("the %s was never sent: nothing was dropped", dc.name)
	}
	if err != nil || v != acked {
		t.Fatalf("stale read: node 2 read %q, %v; last acknowledged commit is %q", v, err, acked)
	}
	c.Fabric().SetInjector(nil)
	want := rmw(t, n2, sp, "+r")
	for _, n := range []*Node{n1, n2} {
		if v, err := get(t, n, sp, "k"); err != nil || v != want {
			t.Errorf("lost update: node %d reads %q, %v; want %q", n.ID(), v, err, want)
		}
	}
}
