package workload_test

import (
	"fmt"
	"testing"
	"time"

	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/workload"
)

func newDB(t testing.TB, nodes int) *netsrv.DB {
	t.Helper()
	db, err := netsrv.NewDB(core.Config{RecycleInterval: 10 * time.Millisecond}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Cluster.Close)
	return db
}

func TestSysbenchLoadAndRun(t *testing.T) {
	db := newDB(t, 2)
	sb := workload.DefaultSysbench(workload.SysbenchReadWrite, 2, 30)
	sb.TablesPerGroup = 2
	sb.RowsPerTable = 200
	if err := sb.Load(db); err != nil {
		t.Fatal(err)
	}
	// Loaded through every primary, every row visible from every primary.
	for group := 0; group <= 2; group++ {
		tab, err := db.CreateTable(fmt.Sprintf("sbtest_g%d_t0", group))
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < 2; node++ {
			tx, err := db.Begin(node)
			if err != nil {
				t.Fatal(err)
			}
			if kvs, err := tx.Scan(tab, nil, nil, 0); err != nil || len(kvs) != sb.RowsPerTable {
				t.Fatalf("node %d sees %d rows of group %d (%v), want %d", node+1, len(kvs), group, err, sb.RowsPerTable)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var firstErr error
	r := workload.Runner{
		Threads:  2,
		Duration: 200 * time.Millisecond,
		OnError: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	res := r.Run(db, sb.TxFunc)
	if firstErr != nil {
		t.Fatalf("workload error: %v", firstErr)
	}
	if res.Commits == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d non-retryable errors", res.Errors)
	}
}

func TestSysbenchKinds(t *testing.T) {
	for _, kind := range []workload.SysbenchKind{
		workload.SysbenchReadOnly, workload.SysbenchWriteOnly,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			db := newDB(t, 1)
			sb := workload.DefaultSysbench(kind, 1, 50)
			sb.TablesPerGroup = 1
			sb.RowsPerTable = 100
			if err := sb.Load(db); err != nil {
				t.Fatal(err)
			}
			res := workload.Runner{Threads: 2, Duration: 100 * time.Millisecond}.Run(db, sb.TxFunc)
			if res.Commits == 0 || res.Errors != 0 {
				t.Fatalf("commits=%d errors=%d", res.Commits, res.Errors)
			}
		})
	}
}

func TestTPCCLoadAndRun(t *testing.T) {
	db := newDB(t, 2)
	tp := workload.DefaultTPCC(4)
	tp.Customers = 20
	tp.Items = 100
	if err := tp.Load(db); err != nil {
		t.Fatal(err)
	}
	var firstErr error
	res := workload.Runner{
		Threads:  2,
		Duration: 300 * time.Millisecond,
		OnError: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}.Run(db, tp.TxFunc)
	if firstErr != nil {
		t.Fatalf("workload error: %v", firstErr)
	}
	if res.Commits == 0 {
		t.Fatal("no TPC-C transactions committed")
	}
}

func TestTATPLoadAndRun(t *testing.T) {
	db := newDB(t, 2)
	ta := workload.DefaultTATP(2)
	ta.SubscribersPerNode = 300
	if err := ta.Load(db); err != nil {
		t.Fatal(err)
	}
	var firstErr error
	res := workload.Runner{
		Threads:  2,
		Duration: 200 * time.Millisecond,
		OnError: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}.Run(db, ta.TxFunc)
	if firstErr != nil {
		t.Fatalf("workload error: %v", firstErr)
	}
	if res.Commits == 0 {
		t.Fatal("no TATP transactions committed")
	}
}

func TestProdMixLoadAndRun(t *testing.T) {
	db := newDB(t, 2)
	pm := workload.DefaultProdMix(2)
	pm.HotRows = 200
	if err := pm.Load(db); err != nil {
		t.Fatal(err)
	}
	var firstErr error
	res := workload.Runner{
		Threads:  2,
		Duration: 200 * time.Millisecond,
		OnError: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}.Run(db, pm.TxFunc)
	if firstErr != nil {
		t.Fatalf("workload error: %v", firstErr)
	}
	if res.Commits == 0 {
		t.Fatal("no prodmix transactions committed")
	}
}
