package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/wal"
)

func lockfusionModeS() lockfusion.Mode { return lockfusion.ModeS }

// TestPropertyNoLostUpdates hammers one counter row from every node with
// locking read-modify-write transactions; the final value must equal the
// number of successful commits (the §4.3.2 RLock guarantee).
func TestPropertyNoLostUpdates(t *testing.T) {
	c, sp := testCluster(t, 4)
	put(t, c.Node(1), sp, "counter", "0")

	var commits atomic.Int64
	var wg sync.WaitGroup
	for n := 1; n <= 4; n++ {
		for th := 0; th < 2; th++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				node := c.Node(n)
				for i := 0; i < 40; i++ {
					for {
						tx, err := node.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						raw, err := tx.GetForUpdate(sp, []byte("counter"))
						if err != nil {
							tx.Rollback()
							if common.IsRetryable(err) {
								continue
							}
							t.Error(err)
							return
						}
						v, _ := strconv.Atoi(string(raw))
						err = tx.Update(sp, []byte("counter"), []byte(strconv.Itoa(v+1)))
						if err == nil {
							err = tx.Commit()
						} else {
							tx.Rollback()
						}
						if err == nil {
							commits.Add(1)
							break
						}
						if !common.IsRetryable(err) {
							t.Error(err)
							return
						}
					}
				}
			}(n)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := get(t, c.Node(2), sp, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if got != strconv.Itoa(int(commits.Load())) {
		t.Fatalf("counter = %s, commits = %d: lost update", got, commits.Load())
	}
	if commits.Load() != 8*40 {
		t.Fatalf("commits = %d, want 320", commits.Load())
	}
}

// TestPropertyLLSNPerPageOrder verifies §4.4's core invariant on the real
// engine's logs: merging every node's redo stream yields, for each page,
// strictly increasing LLSNs.
func TestPropertyLLSNPerPageOrder(t *testing.T) {
	c, sp := testCluster(t, 3)
	var wg sync.WaitGroup
	for n := 1; n <= 3; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			node := c.Node(n)
			for i := 0; i < 120; i++ {
				tx, err := node.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				// Mix shared and private keys so pages migrate.
				key := fmt.Sprintf("shared-%02d", i%8)
				if i%3 == 0 {
					key = fmt.Sprintf("own-%d-%03d", n, i)
				}
				if err := tx.Upsert(sp, []byte(key), []byte("v")); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	for _, n := range c.Nodes() {
		n.wal.Sync(n.wal.End())
	}

	var readers []*wal.StreamReader
	for _, node := range c.store.LogNodes() {
		readers = append(readers, wal.NewStreamReader(c.store, node, c.store.LogStartLSN(node), 0))
	}
	m := wal.NewMergeReader(readers...)
	lastPerPage := map[common.PageID]common.LLSN{}
	records := 0
	for {
		rec, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		records++
		if rec.Page == common.InvalidPageID {
			continue // commit/abort records carry no page
		}
		if rec.LLSN <= lastPerPage[rec.Page] {
			t.Fatalf("page %d: LLSN %d after %d (type %d, node %d)",
				rec.Page, rec.LLSN, lastPerPage[rec.Page], rec.Type, rec.Node)
		}
		lastPerPage[rec.Page] = rec.LLSN
	}
	if records == 0 {
		t.Fatal("no records merged")
	}
}

// TestPropertyVisibilityMonotonic opens snapshot views in commit order and
// checks each sees a value at least as new as the previous view's.
func TestPropertyVisibilityMonotonic(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(1), sp, "k", "0")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := c.Node(1).Begin()
			if err != nil {
				return
			}
			if tx.Update(sp, []byte("k"), []byte(strconv.Itoa(i))) == nil {
				if tx.Commit() == nil {
					i++
				}
			} else {
				tx.Rollback()
			}
		}
	}()

	last := -1
	for i := 0; i < 200; i++ {
		tx, err := c.Node(2).BeginIso(SnapshotIsolation)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := tx.Get(sp, []byte("k"))
		tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		v, _ := strconv.Atoi(string(raw))
		if v < last {
			t.Fatalf("snapshot regressed: saw %d after %d", v, last)
		}
		last = v
	}
	close(stop)
	wg.Wait()
}

// TestAblationConfigsCorrect runs a conflict-heavy mixed workload under each
// ablation switch; results must stay correct (the switches trade
// performance, never correctness).
func TestAblationConfigsCorrect(t *testing.T) {
	configs := map[string]Config{
		"no-lazy-plock": {DisableLazyPLock: true},
		"no-lamport":    {DisableLamport: true},
		"no-cts-stamp":  {DisableCTSStamp: true},
		"storage-sync":  {StoragePageSync: true},
		"tiny-buffers":  {LBPFrames: 24, DBPFrames: 48},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.LockWaitTimeout = 2 * time.Second
			cfg.RecycleInterval = 5 * time.Millisecond
			c := NewCluster(cfg)
			defer c.Close()
			for i := 0; i < 2; i++ {
				if _, err := c.AddNode(); err != nil {
					t.Fatal(err)
				}
			}
			sp, err := c.CreateSpace("t")
			if err != nil {
				t.Fatal(err)
			}
			put(t, c.Node(1), sp, "shared", "0")
			var commits atomic.Int64
			var wg sync.WaitGroup
			for n := 1; n <= 2; n++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					node := c.Node(n)
					for i := 0; i < 30; i++ {
						for {
							tx, err := node.Begin()
							if err != nil {
								t.Error(err)
								return
							}
							raw, err := tx.GetForUpdate(sp, []byte("shared"))
							if err != nil {
								tx.Rollback()
								if common.IsRetryable(err) {
									continue
								}
								t.Error(err)
								return
							}
							v, _ := strconv.Atoi(string(raw))
							err = tx.Update(sp, []byte("shared"), []byte(strconv.Itoa(v+1)))
							if err == nil {
								err = tx.Commit()
							} else {
								tx.Rollback()
							}
							if err == nil {
								commits.Add(1)
								break
							}
							if !common.IsRetryable(err) {
								t.Error(err)
								return
							}
						}
					}
				}(n)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			got, err := get(t, c.Node(1), sp, "shared")
			if err != nil || got != strconv.Itoa(int(commits.Load())) {
				t.Fatalf("counter=%s commits=%d err=%v", got, commits.Load(), err)
			}
		})
	}
}

// TestTinyBufferEvictionPressure forces constant LBP and DBP eviction and
// verifies durability through the full storage path.
func TestTinyBufferEvictionPressure(t *testing.T) {
	c := NewCluster(Config{
		LBPFrames:       16,
		DBPFrames:       24,
		RecycleInterval: 5 * time.Millisecond,
	})
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := c.CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1200
	payload := make([]byte, 300)
	for i := 0; i < rows; i++ {
		tx, err := c.Node(1 + i%2).Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Upsert(sp, []byte(fmt.Sprintf("k%05d", i)), payload); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	if c.store.Stats().PageWrites.Load() == 0 {
		t.Fatal("no storage writes despite tiny buffer pools")
	}
	// All rows visible from both nodes (through storage re-reads).
	for n := 1; n <= 2; n++ {
		tx, err := c.Node(n).Begin()
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := tx.Scan(sp, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		if len(kvs) != rows {
			t.Fatalf("node %d sees %d rows, want %d", n, len(kvs), rows)
		}
	}
}

// TestSequentialCrashesOfBothNodes alternates crash/restart of the two
// nodes under committed traffic and verifies nothing is lost.
func TestSequentialCrashesOfBothNodes(t *testing.T) {
	c, sp := testCluster(t, 2)
	total := 0
	write := func(n int, k string) {
		put(t, c.Node(n), sp, k, "v")
		total++
	}
	write(1, "a1")
	write(2, "b1")
	c.CrashNode(1)
	if _, err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	write(1, "a2")
	c.CrashNode(2)
	if _, err := c.RestartNode(2); err != nil {
		t.Fatal(err)
	}
	write(2, "b2")
	c.CrashNode(1)
	c.CrashNode(2)
	if _, err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartNode(2); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Node(1).Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	kvs, err := tx.Scan(sp, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != total {
		t.Fatalf("rows = %d, want %d", len(kvs), total)
	}
}

// TestBothNodesCrashSimultaneously is the double-crash variant: both nodes
// die with fences up; both recoveries must complete and lift each other's
// fences without deadlocking.
func TestBothNodesCrashSimultaneously(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(1), sp, "x", "1")
	put(t, c.Node(2), sp, "y", "2")
	c.CrashNode(1)
	c.CrashNode(2)
	if _, err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartNode(2); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"x", "y"} {
		if _, err := get(t, c.Node(1), sp, k); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

// TestPurgeShrinksTree deletes a whole key range, purges, and checks the
// leaf chain shrank (empty-leaf unlink SMO) while remaining data survives.
func TestPurgeShrinksTree(t *testing.T) {
	c, sp := testCluster(t, 2)
	n := c.Node(1)
	payload := make([]byte, 200)
	const rows = 1500
	for i := 0; i < rows; i++ {
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(sp, []byte(fmt.Sprintf("k%05d", i)), payload); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	countLeaves := func() int {
		tr, err := n.tree(sp)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tr.First(lockfusionModeS())
		if err != nil {
			t.Fatal(err)
		}
		leaves := 0
		for ref != nil {
			leaves++
			ref, err = tr.Next(ref, lockfusionModeS())
			if err != nil {
				t.Fatal(err)
			}
		}
		return leaves
	}
	before := countLeaves()
	if before < 6 {
		t.Skipf("tree too small (%d leaves)", before)
	}
	// Delete the middle half.
	for i := rows / 4; i < 3*rows/4; i++ {
		tx, _ := n.Begin()
		if err := tx.Delete(sp, []byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	// GMV is the minimum over every node's LAST report: idle node 2's may
	// predate the deletes (its 5ms tick starves on a loaded host), holding every
	// tombstone unpurgeable. Refresh it before node 1 reports and purges.
	for _, nd := range []*Node{c.Node(2), n} {
		if _, err := nd.tf.ReportMinView(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.PurgeSpace(sp); err != nil {
		t.Fatal(err)
	}
	after := countLeaves()
	if after >= before {
		t.Fatalf("leaves before=%d after=%d: purge did not shrink the tree", before, after)
	}
	// Remaining rows intact, from the other node.
	tx, _ := c.Node(2).Begin()
	defer tx.Commit()
	kvs, err := tx.Scan(sp, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != rows/2 {
		t.Fatalf("rows after purge = %d, want %d", len(kvs), rows/2)
	}
}

// TestBackgroundPurgeTrimsChains runs the background purger and checks hot
// rows' version chains stay bounded.
func TestBackgroundPurgeTrimsChains(t *testing.T) {
	c := NewCluster(Config{
		RecycleInterval: 5 * time.Millisecond,
		PurgeInterval:   10 * time.Millisecond,
	})
	defer c.Close()
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	sp, err := c.CreateSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node(1)
	put(t, n, sp, "hot", "0")
	for i := 0; i < 300; i++ {
		tx, _ := n.Begin()
		if err := tx.Update(sp, []byte("hot"), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	time.Sleep(60 * time.Millisecond) // let the purger run
	tr, err := n.tree(sp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tr.LeafSafe([]byte("hot"), lockfusionModeS())
	if err != nil {
		t.Fatal(err)
	}
	chain := len(ref.Page.Find([]byte("hot")).Versions)
	n.releasePager(ref)
	if chain > 50 {
		t.Fatalf("version chain length %d after 300 updates; purge not running", chain)
	}
	if v, _ := get(t, n, sp, "hot"); v != "299" {
		t.Fatalf("hot = %q", v)
	}
}

func TestClusterStats(t *testing.T) {
	c, sp := testCluster(t, 2)
	put(t, c.Node(1), sp, "k", "v")
	if v, err := get(t, c.Node(2), sp, "k"); err != nil || v != "v" {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Commits < 2 {
		t.Fatalf("commits = %d", s.Commits)
	}
	if s.Fabric.RPCs == 0 || s.Fabric.Atomics == 0 {
		t.Fatalf("fabric counters empty: %+v", s)
	}
	if s.DBPResident == 0 {
		t.Fatal("no pages resident in DBP")
	}
}
