// Benchmarks regenerating the paper's evaluation (§5): one macro-benchmark
// per table/figure (driving the internal/figures harness in quick mode and
// reporting simulated throughput), micro-benchmarks for the §4.1 RDMA-path
// claims, and ablation benches for the design choices DESIGN.md calls out.
//
// Full-size sweeps: go run ./cmd/mpbench -fig all
package polardbmp_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"polardbmp"
	"polardbmp/internal/core"
	"polardbmp/internal/figures"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/workload"
)

// benchOpts returns a trimmed harness configuration so each figure bench
// completes in tens of seconds.
func benchOpts() figures.Options {
	return figures.Options{
		Out:      io.Discard,
		Quick:    true,
		Scale:    25,
		Duration: 700 * time.Millisecond,
		Warmup:   150 * time.Millisecond,
		Threads:  2,
		Nodes:    []int{1, 2},
	}
}

func reportScaling(b *testing.B, points []figures.SweepPoint) {
	b.Helper()
	var max float64
	for _, p := range points {
		if p.Scaling > max {
			max = p.Scaling
		}
		if p.Nodes == points[len(points)-1].Nodes {
			b.ReportMetric(p.TPS, "sim-tps@"+fmt.Sprint(p.Nodes)+"n")
		}
	}
	b.ReportMetric(max, "best-scaling-x")
}

func BenchmarkFig07SysBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportScaling(b, figures.Fig7(benchOpts()))
	}
}

func BenchmarkFig08TATP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportScaling(b, figures.Fig8(benchOpts()))
	}
}

func BenchmarkFig09TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportScaling(b, figures.Fig9(benchOpts()))
	}
}

func BenchmarkFig10Production(b *testing.B) {
	o := benchOpts()
	o.Duration = 400 * time.Millisecond
	for i := 0; i < b.N; i++ {
		rates := figures.Fig10(o)
		var peak float64
		for _, r := range rates {
			if r > peak {
				peak = r
			}
		}
		b.ReportMetric(peak*float64(o.Scale), "peak-sim-tps")
	}
}

func BenchmarkFig11VsTaurus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := figures.Fig11(benchOpts())
		// Report the MP-vs-log-ship throughput ratio at the largest
		// cluster size (the paper's headline comparison).
		var mp, ls float64
		for _, p := range points {
			if p.Nodes != 2 {
				continue
			}
			if p.System == "polardb-mp" {
				mp = p.TPS
			} else {
				ls = p.TPS
			}
		}
		if ls > 0 {
			b.ReportMetric(mp/ls, "mp-vs-logship-x")
		}
	}
}

func BenchmarkFig12LightConflict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := figures.Fig12(benchOpts())
		var mp, occ float64
		for _, p := range points {
			if p.Nodes != 2 {
				continue
			}
			switch p.System {
			case "polardb-mp":
				mp = p.TPS
			case "occ(aurora)":
				occ = p.TPS
			}
		}
		if occ > 0 {
			b.ReportMetric(mp/occ, "mp-vs-occ-x")
		}
	}
}

func BenchmarkFig13GSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := figures.Fig13(benchOpts())
		// Report each system's throughput retention with 4 GSIs.
		for _, p := range points {
			if p.Shared == 4 {
				name := "mp-retain-pct"
				if p.System != "polardb-mp" {
					name = "2pc-retain-pct"
				}
				b.ReportMetric(p.Scaling*100, name)
			}
		}
	}
}

func BenchmarkFig15Recovery(b *testing.B) {
	o := benchOpts()
	o.Threads = 2
	for i := 0; i < b.N; i++ {
		_, _, recovery := figures.Fig15(o)
		b.ReportMetric(float64(recovery.Milliseconds()), "recovery-ms")
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range figures.Ablations(benchOpts()) {
			b.ReportMetric(r.Improves, r.Name+"-x")
		}
	}
}

// --- micro-benchmarks: the §4.1/§4.2 fast paths, unscaled ------------------

// microCluster builds a latency-free 2-node cluster for per-op benches.
func microCluster(b *testing.B) *netsrv.DB {
	b.Helper()
	db, err := netsrv.NewDB(core.Config{RecycleInterval: 10 * time.Millisecond}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Cluster.Close)
	return db
}

// BenchmarkMicroTSOFetch measures the commit-timestamp fetch (§4.1: "usually
// fetched using a one-sided RDMA operation ... within several microseconds").
func BenchmarkMicroTSOFetch(b *testing.B) {
	db := microCluster(b)
	tf := db.Cluster.Node(1).TxFusion()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tf.NextCommitCSN(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroTITRemoteRead measures Algorithm 1's remote path: resolving
// another node's transaction state with a one-sided TIT read.
func BenchmarkMicroTITRemoteRead(b *testing.B) {
	db := microCluster(b)
	tx, err := db.Cluster.Node(2).Begin()
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Rollback()
	g := tx.GTrxID()
	tf := db.Cluster.Node(1).TxFusion()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tf.GetTrxCTS(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroLocalCommit measures a full single-statement write commit
// (log force included) on an otherwise idle node.
func BenchmarkMicroLocalCommit(b *testing.B) {
	db, err := polardbmp.Open(polardbmp.Options{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable("bench")
	if err != nil {
		b.Fatal(err)
	}
	n := db.Node(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := n.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Upsert(tab, []byte(fmt.Sprintf("k%06d", i%1000)), []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSnapshotRead measures a read-committed point select.
func BenchmarkMicroSnapshotRead(b *testing.B) {
	db, err := polardbmp.Open(polardbmp.Options{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("bench")
	tx, _ := db.Node(1).Begin()
	for i := 0; i < 1000; i++ {
		tx.Insert(tab, []byte(fmt.Sprintf("k%06d", i)), []byte("v"))
	}
	tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := db.Node(1).Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Get(tab, []byte(fmt.Sprintf("k%06d", i%1000))); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

// BenchmarkMicroDBPTransfer measures a page ping-pong: node 1 updates, node
// 2 reads — the Buffer Fusion transfer path (§4.2).
func BenchmarkMicroDBPTransfer(b *testing.B) {
	db, err := polardbmp.Open(polardbmp.Options{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("bench")
	seed, _ := db.Node(1).Begin()
	seed.Insert(tab, []byte("hot"), []byte("0"))
	seed.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := db.Node(1).Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Update(tab, []byte("hot"), []byte(fmt.Sprint(i))); err != nil {
			b.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			b.Fatal(err)
		}
		r, err := db.Node(2).Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Get(tab, []byte("hot")); err != nil {
			b.Fatal(err)
		}
		r.Commit()
	}
}

// BenchmarkMicroLazyPLockLocalGrant measures the §4.3.1 fast path: a PLock
// re-granted locally from the lazy retention cache.
func BenchmarkMicroLazyPLockLocalGrant(b *testing.B) {
	db, err := polardbmp.Open(polardbmp.Options{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("bench")
	seed, _ := db.Node(1).Begin()
	seed.Insert(tab, []byte("k"), []byte("v"))
	seed.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Node(1).Begin()
		if _, err := tx.Get(tab, []byte("k")); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

// BenchmarkMicroRecovery measures single-node crash recovery for a log tail
// of ~1000 committed writes.
func BenchmarkMicroRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := netsrv.NewDB(core.Config{}, 2)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := db.CreateTable("bench")
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 1000; j++ {
			tx, _ := db.Begin(0)
			tx.Insert(tab, []byte(fmt.Sprintf("k%06d", j)), []byte("v"))
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		db.Cluster.CrashNode(1)
		b.StartTimer()
		if _, err := db.Cluster.RestartNode(1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Cluster.Close()
		b.StartTimer()
	}
}

// BenchmarkMicroWorkloadThroughput is a plain (unscaled) sanity benchmark:
// raw engine throughput on the TATP mix, two nodes.
func BenchmarkMicroWorkloadThroughput(b *testing.B) {
	db, err := netsrv.NewDB(core.Config{}, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Cluster.Close()
	ta := workload.DefaultTATP(2)
	ta.SubscribersPerNode = 500
	if err := ta.Load(db); err != nil {
		b.Fatal(err)
	}
	txf := ta.TxFunc(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := txf(db, i%2); err != nil {
			b.Fatal(err)
		}
	}
}
