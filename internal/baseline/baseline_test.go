package baseline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/workload"
)

func TestShardedSinglePartitionOnePhase(t *testing.T) {
	db := NewSharded(2, ShardedLatency{})
	tab, _ := db.CreateTable("t")
	// Any single-partition transaction one-phases, local or remote.
	key := []byte("a")
	tx, _ := db.Begin(0)
	if err := tx.Insert(tab, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.OnePhaseCommits != 1 || db.TwoPhaseCommits != 0 {
		t.Fatalf("1pc=%d 2pc=%d", db.OnePhaseCommits, db.TwoPhaseCommits)
	}
}

func TestShardedCrossPartitionTwoPhase(t *testing.T) {
	db := NewSharded(2, ShardedLatency{})
	tab, _ := db.CreateTable("t")
	// Two keys on different partitions.
	k0, k1 := []byte("a"), []byte("b")
	for i := 0; db.partOf(k0) == db.partOf(k1) && i < 1000; i++ {
		k1 = append(k1, 'y')
	}
	tx, _ := db.Begin(0)
	if err := tx.Insert(tab, k0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tab, k1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.TwoPhaseCommits != 1 {
		t.Fatalf("2pc = %d", db.TwoPhaseCommits)
	}
	// Data landed on both partitions.
	tx2, _ := db.Begin(1)
	if _, err := tx2.Get(tab, k0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Get(tab, k1); err != nil {
		t.Fatal(err)
	}
	tx2.Rollback()
}

func TestShardedRowLockConflict(t *testing.T) {
	db := NewSharded(2, ShardedLatency{})
	tab, _ := db.CreateTable("t")
	seed, _ := db.Begin(0)
	seed.Insert(tab, []byte("k"), []byte("v"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, _ := db.Begin(0)
	if err := t1.Update(tab, []byte("k"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	t2, _ := db.Begin(1)
	err := t2.Update(tab, []byte("k"), []byte("b"))
	if !errors.Is(err, common.ErrWriteConflict) {
		t.Fatalf("lock conflict err = %v", err)
	}
	t2.Rollback()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Lock released after commit.
	t3, _ := db.Begin(1)
	if err := t3.Update(tab, []byte("k"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedGSICommitCosts(t *testing.T) {
	// With 4 GSIs nearly every insert becomes a multi-partition 2PC.
	db := NewSharded(4, DefaultShardedLatency())
	g := workload.DefaultGSI(4)
	g.PreloadRows = 40
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	res := workload.Runner{Threads: 1, Duration: 100 * time.Millisecond}.Run(db, g.TxFunc)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if db.TwoPhaseCommits == 0 {
		t.Fatal("GSI inserts never used 2PC")
	}
}

func TestShardedConcurrentStress(t *testing.T) {
	db := NewSharded(4, ShardedLatency{})
	tab, _ := db.CreateTable("t")
	var wg sync.WaitGroup
	var commits int64
	var mu sync.Mutex
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tx, _ := db.Begin(n)
				key := []byte{byte('a' + n), byte(i), byte(i >> 8)}
				if err := tx.Insert(tab, key, []byte("v")); err != nil {
					tx.Rollback()
					continue
				}
				if tx.Commit() == nil {
					mu.Lock()
					commits++
					mu.Unlock()
				}
			}
		}(n)
	}
	wg.Wait()
	if commits != 400 {
		t.Fatalf("commits = %d, want 400", commits)
	}
}

// Upsert completes wire.Tx: insert when absent, overwrite when present.
func TestBaselineUpsert(t *testing.T) {
	db := NewSharded(2, ShardedLatency{})
	tab, _ := db.CreateTable("t")
	for _, want := range []string{"v1", "v2"} {
		tx, _ := db.Begin(0)
		if err := tx.Upsert(tab, []byte("k"), []byte(want)); err != nil {
			t.Fatalf("upsert %s: %v", want, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		rd, _ := db.Begin(1)
		if v, err := rd.Get(tab, []byte("k")); err != nil || string(v) != want {
			t.Fatalf("get = %q, %v; want %q", v, err, want)
		}
		rd.Rollback()
	}
}
