package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/membership"
	"polardbmp/internal/page"
	"polardbmp/internal/wal"
)

// leaveInDoubt puts tx's writes on their pages with durable redo and no commit
// record: what a crash between the last statement and the commit force leaves
// behind. (Under OCC the writes reach the pages in Prepare; 2PL has none.)
func leaveInDoubt(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.n.c.cc.Prepare(tx); err != nil {
		t.Fatal(err)
	}
	tx.n.wal.Sync(tx.n.wal.End())
}

// TestVersionFate is the fate rule's table, one row per verdict, and what
// settling a storage image by it does to the versions.
func TestVersionFate(t *testing.T) {
	gid := func(node, trx int) common.GTrxID {
		return common.GTrxID{Node: common.NodeID(node), Trx: common.TrxID(trx), Slot: uint32(trx), Version: 1}
	}
	committed, aborted, unfinished, old, foreign := gid(2, 1), gid(2, 2), gid(2, 3), gid(2, 4), gid(3, 1)
	ins := func(g common.GTrxID, key string) *wal.Record {
		return &wal.Record{Type: wal.RecInsert, Node: 2, Trx: g, Page: 9, Space: 1, Key: []byte(key), Value: []byte("v")}
	}
	recs := []*wal.Record{
		ins(committed, "a"), {Type: wal.RecCommit, Node: 2, Trx: committed, CTS: 7},
		ins(aborted, "b"), {Type: wal.RecAbort, Node: 2, Trx: aborted},
		ins(unfinished, "c"),
		{Type: wal.RecAbort, Node: 2, Trx: foreign}, // a takeover's compensation of node 3, logged here
	}
	for i, r := range recs {
		r.LLSN = common.LLSN(i + 1)
	}
	a := newAnalysis(2)
	pg := page.New(9, 1, page.TypeLeaf)
	var redone bool
	next := func() (*wal.Record, error) {
		if len(recs) == 0 {
			return nil, nil
		}
		r := recs[0]
		recs = recs[1:]
		return r, nil
	}
	if err := a.fold(next, func(r *wal.Record) error { applyRecord(pg, r, &redone); return nil }); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		verdict string
		g       common.GTrxID
		want    common.CSN
	}{
		{"committed: logged CTS", committed, 7},
		{"aborted leftover: invisible, compensate", aborted, common.CSNMax},
		{"unfinished: invisible, compensate", unfinished, common.CSNMax},
		{"absent from the retained log: visible to all", old, common.CSNMin},
	} {
		if got := a.fate(row.g); got != row.want {
			t.Errorf("%s: fate = %d, want %d", row.verdict, got, row.want)
		}
	}
	if u := a.unfinished(); len(u) != 1 || u[0].g != unfinished || len(u[0].undo) != 1 {
		t.Fatalf("unfinished = %+v, want only %v with one undo entry", u, unfinished)
	}
	if a.trxs[foreign] != nil {
		t.Fatal("a transaction of a node whose stream was not folded entered the table")
	}

	// The image: a, b, c as replayed, plus a pre-checkpoint version and one
	// by a live foreign node the analysis must leave alone.
	pg.InsertVersion([]byte("d"), page.Version{Trx: old, Value: []byte("v")})
	pg.InsertVersion([]byte("e"), page.Version{Trx: foreign, Value: []byte("v")})
	imgs := &pageImages{pages: map[common.PageID]*page.Page{9: pg}, dirty: map[common.PageID]bool{}}
	imgs.settle(a, 0, func(*page.Page) func(*page.Version) common.CSN { return nil })
	got := map[string]common.CSN{}
	for _, r := range pg.Rows {
		got[string(r.Key)] = r.Head().CTS
	}
	want := map[string]common.CSN{"a": 7, "d": common.CSNMin, "e": common.CSNInit}
	if !reflect.DeepEqual(got, want) || !imgs.dirty[9] {
		t.Fatalf("settled image = %v (dirty %v), want %v", got, imgs.dirty[9], want)
	}
}

// TestRecoveryDriversAgree ends one seeded history — committed, rolled-back,
// in-doubt and pre-checkpoint transactions on two nodes, a split after the
// checkpoint, no CTS stamped so every version takes its fate from the rule —
// three ways: node restart, survivor takeover, cold start. The three drivers
// must leave the same rows.
func TestRecoveryDriversAgree(t *testing.T) {
	endings := []string{"restart", "takeover", "coldstart"}
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			var expect map[string]string
			results := map[string]map[string]string{}
			counts := map[string]int{}
			for _, ending := range endings {
				cfg := Config{CC: cc, LockWaitTimeout: 2 * time.Second, DisableCTSStamp: true}
				if ending == "takeover" {
					cfg.SelfHeal, cfg.LeaseRenewInterval, cfg.LeaseTimeout = true, 10*time.Millisecond, 400*time.Millisecond
				}
				c := NewCluster(cfg)
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
				rng := rand.New(rand.NewSource(42))
				expect = map[string]string{}
				fuzzHistory(t, c, sp, rng, "old", 150, 60, 0, expect)
				if err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// 120 keys x 200 bytes cannot stay on one 16 KiB page.
				fuzzHistory(t, c, sp, rng, "new", 300, 120, 200, expect)
				tx, err := c.Node(2).Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Upsert(sp, []byte("k000"), []byte("in-doubt")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Insert(sp, []byte("ghost"), []byte("in-doubt")); err != nil {
					t.Fatal(err)
				}
				leaveInDoubt(t, tx)

				switch ending {
				case "restart":
					if err := c.CrashNode(2); err != nil {
						t.Fatal(err)
					}
					if _, err := c.RestartNode(2); err != nil {
						t.Fatal(err)
					}
				case "takeover":
					if err := c.KillNode(2); err != nil {
						t.Fatal(err)
					}
					waitTakeovers(t, c, 1)
				case "coldstart":
					c.CrashAll()
					if err := c.RecoverAll(); err != nil {
						t.Fatal(err)
					}
					if _, err := c.AddNode(); err != nil {
						t.Fatal(err)
					}
				}

				rtx, err := c.Node(1).Begin()
				if err != nil {
					t.Fatal(err)
				}
				kvs, err := rtx.Scan(sp, nil, nil, 0)
				if err != nil {
					t.Fatalf("%s: scan: %v", ending, err)
				}
				mustCommit(t, rtx)
				got := map[string]string{}
				for _, kv := range kvs {
					got[string(kv.Key)] = string(kv.Value)
				}
				results[ending] = got
				if err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				si, _ := c.lookupSpaceByID(sp)
				if counts[ending], err = VerifyTree(c.store, si.Anchor); err != nil {
					t.Fatalf("%s: %v", ending, err)
				}
			}
			for _, ending := range endings {
				if !reflect.DeepEqual(results[ending], expect) {
					t.Errorf("%s: recovered rows differ from the acknowledged commits (%d rows, want %d)", ending, len(results[ending]), len(expect))
				}
				if counts[ending] != len(expect) {
					t.Errorf("%s: tree holds %d rows, want %d", ending, counts[ending], len(expect))
				}
			}
		})
	}
}

// TestTakeoverWaitsOutSecondFence: node A's in-doubt version sits on a page
// node B holds X; B crashes first (its PLock fence is up), then A dies and is
// taken over while that fence stands. The takeover cannot compensate A's
// version yet, so it must not finish: one pass, no waiting under the takeover
// lock, the slot left Fenced — A's versions keep resolving as active — and
// the stream untruncated. Once B has recovered, re-running the takeover (what
// the detectors' fenced-slot sweep does) removes the version and only then
// marks A recovered. Giving up instead publishes the rolled-back write: a
// recovered node's unstamped versions resolve CSNMin.
func TestTakeoverWaitsOutSecondFence(t *testing.T) {
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			c := NewCluster(Config{CC: cc, LockWaitTimeout: 2 * time.Second, RecycleInterval: 5 * time.Millisecond})
			t.Cleanup(c.Close)
			for i := 0; i < 3; i++ {
				if _, err := c.AddNode(); err != nil {
					t.Fatal(err)
				}
			}
			sp, err := c.CreateSpace("t")
			if err != nil {
				t.Fatal(err)
			}
			nA, nB, nS := c.Node(1), c.Node(2), c.Node(3)
			put(t, nA, sp, "k", "orig")
			tx, err := nA.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(sp, []byte("k"), []byte("bad")); err != nil {
				t.Fatal(err)
			}
			leaveInDoubt(t, tx)
			g := tx.GTrxID()
			// B writes a sibling row: the page, A's version on it, moves to B.
			put(t, nB, sp, "k2", "x")
			if err := c.CrashNode(2); err != nil {
				t.Fatal(err)
			}

			// A reader on the survivor, for the whole test: the page may be
			// unreachable, the value may never be A's.
			stop := make(chan struct{})
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					rtx, err := nS.Begin()
					if err != nil {
						t.Errorf("survivor begin: %v", err)
						return
					}
					v, err := rtx.Get(sp, []byte("k"))
					rtx.Commit()
					if err == nil && string(v) != "orig" {
						t.Errorf("survivor read %q: A's uncommitted write is visible", v)
						return
					}
				}
			}()
			stopReader := sync.OnceFunc(func() { close(stop); readers.Wait() })
			defer stopReader()

			// A falls silent: evict it the way a detector would and kill it.
			var slot [24]byte
			if err := c.fabric.From(3).Read(common.PMFSNode, membership.Region, membership.SlotOff(1), slot[:]); err != nil {
				t.Fatal(err)
			}
			won, epoch := c.members.Evict(3, 1, binary.LittleEndian.Uint64(slot[8:16]), c.members.CurrentEpoch())
			if !won {
				t.Fatal("eviction of node 1 lost")
			}
			if err := c.KillNode(1); err != nil {
				t.Fatal(err)
			}
			logStart := c.store.LogStartLSN(1)

			start := time.Now()
			c.takeover(1, epoch, nS)
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("takeover held the takeover lock for %v waiting on another node's fence", d)
			}
			m := c.Stats().Membership
			if c.members.State(1) != membership.StateFenced || c.members.Recovered(1) || m.Takeovers != 0 {
				t.Fatalf("takeover finished with compensation outstanding: state %d, takeovers %d", c.members.State(1), m.Takeovers)
			}
			if !strings.Contains(m.TakeoverErr, "node 1: compensation pending: 1 entries") {
				t.Fatalf("takeover_err = %q, want the pending compensation", m.TakeoverErr)
			}
			if c.store.LogStartLSN(1) != logStart || c.store.LogDurableLSN(1) == logStart {
				t.Fatal("dead node's stream truncated before its transactions finished")
			}
			if out, _, err := c.TxStatus(g); err != nil || out != TxOutcomeActive {
				t.Fatalf("TxStatus while pending = %v, %v; want active", out, err)
			}

			// B recovers; its fence lifts. A is still unrecovered, so its
			// version is reachable now but resolves as active.
			if _, err := c.RestartNode(2); err != nil {
				t.Fatal(err)
			}
			if v, err := get(t, nS, sp, "k"); err != nil || v != "orig" {
				t.Fatalf("read with A pending = %q, %v; want orig", v, err)
			}

			c.takeover(1, epoch, nS)
			m = c.Stats().Membership
			if !c.members.Recovered(1) || m.Takeovers != 1 || m.TakeoverErr != "" {
				t.Fatalf("re-run did not finish: state %d, takeovers %d, takeover_err %q", c.members.State(1), m.Takeovers, m.TakeoverErr)
			}
			tr, err := nS.tree(sp)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tr.LeafSafe([]byte("k"), lockfusion.ModeS)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ref.Page.Find([]byte("k")).Versions {
				if v.Trx == g {
					t.Error("A reports recovered with its in-doubt version still on the page")
				}
			}
			nS.releasePager(ref)
			if out, _, err := c.TxStatus(g); err != nil || out != TxOutcomeAborted {
				t.Fatalf("TxStatus = %v, %v; want aborted", out, err)
			}
			stopReader()
			put(t, nS, sp, "k", "after")
			if v, err := get(t, nS, sp, "k"); err != nil || v != "after" {
				t.Fatalf("write after recovery = %q, %v", v, err)
			}
		})
	}
}

// TestRestartReplaysOnlyItsFence: a restart replays only the pages its crashed
// incarnation still held in X. R's insert reached its leaf, then a live peer
// took the leaf in S, so R pushed and released it; the peer keeps holding it.
// The leaf is outside R's fence, so the restart has nothing to replay there
// and must not wait on the peer.
func TestRestartReplaysOnlyItsFence(t *testing.T) {
	c, sp := testCluster(t, 2)
	nR, nL := c.Node(1), c.Node(2)
	put(t, nR, sp, "k", "v")
	leaf := leafOf(t, nR, sp, "k")
	if err := nL.pl.Acquire(leaf, lockfusion.ModeS); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { nL.pl.Release(leaf) })
	defer release()
	if err := c.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	nR, err := c.RestartNode(1)
	if d := time.Since(start); err != nil || d > 2*time.Second {
		t.Fatalf("restart with a live peer holding a released page: %v after %v", err, d)
	}
	release()
	for _, n := range []*Node{nR, nL} {
		if v, err := get(t, n, sp, "k"); err != nil || v != "v" {
			t.Fatalf("node %d read %q, %v; want v", n.id, v, err)
		}
	}
}

// TestCommitOnClosedWriterRefused: a commit whose log writer closes between
// the lease check and the append (the node's STONITH racing it) has no commit
// record anywhere. It must fail, even when everything before the record was
// already durable.
func TestCommitOnClosedWriterRefused(t *testing.T) {
	c, sp := testCluster(t, 1)
	n := c.Node(1)
	put(t, n, sp, "k", "orig")
	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(sp, []byte("k"), []byte("lost")); err != nil {
		t.Fatal(err)
	}
	n.wal.Sync(n.wal.End())
	n.wal.Close()
	if err := tx.Commit(); !errors.Is(err, common.ErrNodeDown) && !errors.Is(err, common.ErrStaleEpoch) {
		t.Fatalf("commit with a dropped commit record = %v, want ErrNodeDown or ErrStaleEpoch", err)
	}
	if out, _, err := c.TxStatus(tx.GTrxID()); err != nil || out != TxOutcomeAborted {
		t.Fatalf("TxStatus = %v, %v; want aborted", out, err)
	}
}
