package figures

import (
	"fmt"
	"sync"
	"time"

	"polardbmp/internal/metrics"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/workload"
)

// Fig7 reproduces Figure 7: SysBench read-only / read-write / write-only
// throughput for 1..8 nodes across shared-data percentages. The paper's
// headline points: read-only scales linearly; at 100% shared data the
// 8-node cluster still reaches ~5.4x (read-write) and ~3x (write-only).
func Fig7(o Options) []SweepPoint {
	o.fill()
	o.header("Figure 7: SysBench throughput vs nodes and shared%")
	kinds := []workload.SysbenchKind{
		workload.SysbenchReadOnly, workload.SysbenchReadWrite, workload.SysbenchWriteOnly,
	}
	sharedPcts := []int{0, 10, 50, 100}
	if o.Quick {
		kinds = []workload.SysbenchKind{workload.SysbenchReadWrite}
		sharedPcts = []int{0, 100}
	}
	var points []SweepPoint
	for _, kind := range kinds {
		for _, shared := range sharedPcts {
			for _, n := range o.Nodes {
				tps, res := o.runSysbench("polardb-mp", kind, shared, n, o.newMP)
				points = append(points, SweepPoint{
					System: "polardb-mp", Kind: kind.String(), Shared: shared,
					Nodes: n, TPS: tps, Aborts: res.Aborts,
					P95: res.Latency.Quantile(0.95) / time.Duration(1),
				})
			}
		}
	}
	normalize(points)
	o.printf("%-12s %7s %6s %12s %8s %8s\n", "workload", "shared%", "nodes", "tps(sim)", "scaling", "aborts")
	for _, p := range points {
		o.printf("%-12s %7d %6d %12.0f %7.2fx %8d\n", p.Kind, p.Shared, p.Nodes, p.TPS, p.Scaling, p.Aborts)
	}
	return points
}

// runSysbench builds, loads and measures one sysbench configuration.
func (o Options) runSysbench(system string, kind workload.SysbenchKind, shared, n int,
	build func(int) (*netsrv.DB, error)) (float64, workload.Result) {
	db, err := build(n)
	if err != nil {
		panic(err)
	}
	defer db.Cluster.Close()
	sb := workload.DefaultSysbench(kind, n, shared)
	sb.TablesPerGroup = 2
	sb.RowsPerTable = 800
	sb.StatementDelay = o.stmtDelay()
	if err := sb.Load(db); err != nil {
		panic(fmt.Sprintf("fig: sysbench load (%s, %d nodes): %v", system, n, err))
	}
	res := o.runner().Run(db, sb.TxFunc)
	return o.simTPS(res), res
}

// Fig8 reproduces Figure 8: TATP scaling 1..8 nodes (paper: linear, because
// the subscriber-partitioned workload gives each page a single owner).
func Fig8(o Options) []SweepPoint {
	o.fill()
	o.header("Figure 8: TATP throughput vs nodes")
	var points []SweepPoint
	for _, n := range o.Nodes {
		db, err := o.newMP(n)
		if err != nil {
			panic(err)
		}
		ta := workload.DefaultTATP(n)
		ta.SubscribersPerNode = 1500
		ta.StatementDelay = o.stmtDelay()
		if err := ta.Load(db); err != nil {
			panic(err)
		}
		res := o.runner().Run(db, ta.TxFunc)
		db.Cluster.Close()
		points = append(points, SweepPoint{
			System: "polardb-mp", Kind: "tatp", Nodes: n,
			TPS: o.simTPS(res), Aborts: res.Aborts,
		})
	}
	normalize(points)
	o.printf("%6s %12s %8s\n", "nodes", "tps(sim)", "scaling")
	for _, p := range points {
		o.printf("%6d %12.0f %7.2fx\n", p.Nodes, p.TPS, p.Scaling)
	}
	return points
}

// Fig9 reproduces Figure 9: TPC-C within a large cluster — New-Order
// throughput (tpmC) and P95 latency as nodes scale (paper: 1..32 nodes,
// near-linear to 24, 28x at 32; we sweep to 16 on one box).
func Fig9(o Options) []SweepPoint {
	o.fill()
	nodes := []int{1, 2, 4, 8, 16}
	if o.Quick {
		nodes = []int{1, 2, 4}
	}
	o.header("Figure 9: TPC-C tpmC and P95 latency vs nodes")
	var points []SweepPoint
	for _, n := range nodes {
		db, err := o.newMP(n)
		if err != nil {
			panic(err)
		}
		tp := workload.DefaultTPCC(2 * n) // two warehouses per node
		tp.Customers = 30
		tp.Items = 200
		tp.StatementDelay = o.stmtDelay()
		if err := tp.Load(db); err != nil {
			panic(err)
		}
		res := o.runner().Run(db, tp.TxFunc)
		db.Cluster.Close()
		// tpmC counts New-Order commits: 45% of the standard mix.
		tpmC := float64(res.Commits) * 0.45 / res.Elapsed.Minutes() * float64(o.Scale)
		points = append(points, SweepPoint{
			System: "polardb-mp", Kind: "tpcc", Nodes: n,
			TPS: tpmC, Aborts: res.Aborts,
			P95: res.Latency.Quantile(0.95) * time.Duration(1) / time.Duration(o.Scale),
		})
	}
	normalize(points)
	o.printf("%6s %14s %8s %12s\n", "nodes", "tpmC(sim)", "scaling", "p95(sim)")
	for _, p := range points {
		o.printf("%6d %14.0f %7.2fx %12v\n", p.Nodes, p.TPS, p.Scaling, p.P95.Round(10*time.Microsecond))
	}
	return points
}

// Fig10 reproduces Figure 10: the production trading workload's throughput
// timeline while nodes are added live (paper: at 60/120/180s; here at
// proportional points of a shorter run). Near-linear steps are expected
// because the trace is well-partitioned.
func Fig10(o Options) []float64 {
	o.fill()
	o.header("Figure 10: production workload timeline with live node additions")
	const maxNodes = 4
	segment := 2 * o.Duration
	db, err := o.newMP(maxNodes)
	if err != nil {
		panic(err)
	}
	defer db.Cluster.Close()
	pm := workload.DefaultProdMix(maxNodes)
	pm.HotRows = 800
	pm.StatementDelay = o.stmtDelay()
	if err := pm.Load(db); err != nil {
		panic(err)
	}

	// All nodes exist (data pre-loaded), but traffic is attached to node k
	// only when its segment starts — the paper's "add more nodes" moments.
	tl := metrics.NewTimeline(segment / 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	startNode := func(n int) {
		for th := 0; th < o.Threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				txf := pm.TxFunc(n, th)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if txf(db, n) == nil {
						tl.Tick(1)
					}
				}
			}(th)
		}
	}
	for n := 0; n < maxNodes; n++ {
		startNode(n)
		time.Sleep(segment)
	}
	close(stop)
	wg.Wait()

	rates := tl.Rates()
	if len(rates) > 1 {
		rates = rates[:len(rates)-1] // drop the partial final bucket
	}
	o.printf("%8s %12s %s\n", "t", "tps(sim)", "active-nodes")
	for i, r := range rates {
		active := min(i/4+1, maxNodes)
		o.printf("%8v %12.0f %d\n", time.Duration(i)*tl.Interval()*time.Duration(o.Scale), r*float64(o.Scale), active)
	}
	return rates
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
