package baseline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/workload"
)

func TestOCCBasicCommit(t *testing.T) {
	db := NewOCCMM(2, OCCLatency{})
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(0)
	if err := tx.Insert(tab, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Visible from the other node.
	tx2, _ := db.Begin(1)
	v, err := tx2.Get(tab, []byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("get = %q, %v", v, err)
	}
	tx2.Rollback()
}

func TestOCCConflictAborts(t *testing.T) {
	db := NewOCCMM(2, OCCLatency{})
	tab, _ := db.CreateTable("t")
	seed, _ := db.Begin(0)
	seed.Insert(tab, []byte("k"), []byte("v0"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	// Two nodes stage writes to the same key concurrently; the second
	// committer must get a write conflict ("deadlock error", §2.3).
	t1, _ := db.Begin(0)
	t2, _ := db.Begin(1)
	if err := t1.Update(tab, []byte("k"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(tab, []byte("k"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := t2.Commit()
	if !errors.Is(err, common.ErrWriteConflict) {
		t.Fatalf("second committer err = %v, want ErrWriteConflict", err)
	}
	if !common.IsRetryable(err) {
		t.Fatal("conflict must be retryable")
	}
	if db.Conflicts != 1 {
		t.Fatalf("conflicts = %d", db.Conflicts)
	}
}

func TestOCCPageGranularityConflict(t *testing.T) {
	db := NewOCCMM(2, OCCLatency{})
	tab, _ := db.CreateTable("t")
	// Find two distinct keys in the same bucket.
	var k1, k2 []byte
	base := []byte("key-000000")
	b0 := bucketOf(base, occBuckets)
	for i := 1; i < 100000; i++ {
		k := []byte(string(rune('a'+i%26)) + string(base[1:]) + string(rune('0'+i%10)))
		if bucketOf(k, occBuckets) == b0 && string(k) != string(base) {
			k1, k2 = base, k
			break
		}
	}
	if k2 == nil {
		t.Skip("no bucket collision found")
	}
	t1, _ := db.Begin(0)
	t2, _ := db.Begin(1)
	t1.Insert(tab, k1, []byte("a"))
	t2.Insert(tab, k2, []byte("b"))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Different rows, same "page": still a conflict.
	if err := t2.Commit(); !errors.Is(err, common.ErrWriteConflict) {
		t.Fatalf("same-page different-row commit err = %v", err)
	}
}

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

func TestOCCUnderWorkloadRunner(t *testing.T) {
	db := NewOCCMM(2, OCCLatency{})
	sb := workload.DefaultSysbench(workload.SysbenchWriteOnly, 2, 100)
	sb.TablesPerGroup = 1
	sb.RowsPerTable = 50 // tiny: force page conflicts
	if err := sb.Load(db); err != nil {
		t.Fatal(err)
	}
	res := workload.Runner{Threads: 2, Duration: 150 * time.Millisecond, MaxRetries: 5}.Run(db, sb.TxFunc)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if db.Conflicts == 0 {
		t.Fatal("fully-shared write-only workload produced no OCC conflicts")
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

// Upsert completes wire.Tx on both models: insert when absent, overwrite
// when present.
func TestBaselineUpsert(t *testing.T) {
	for name, db := range map[string]workload.DB{
		"occmm":   NewOCCMM(2, OCCLatency{}),
		"sharded": NewSharded(2, ShardedLatency{}),
	} {
		tab, _ := db.CreateTable("t")
		for _, want := range []string{"v1", "v2"} {
			tx, _ := db.Begin(0)
			if err := tx.Upsert(tab, []byte("k"), []byte(want)); err != nil {
				t.Fatalf("%s: upsert %s: %v", name, want, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s: commit: %v", name, err)
			}
			rd, _ := db.Begin(1)
			if v, err := rd.Get(tab, []byte("k")); err != nil || string(v) != want {
				t.Fatalf("%s: get = %q, %v; want %q", name, v, err, want)
			}
			rd.Rollback()
		}
	}
}
