package figures

import (
	"sync"
	"time"

	"polardbmp/internal/baseline"
	"polardbmp/internal/common"
	"polardbmp/internal/metrics"
	"polardbmp/internal/workload"
)

// Fig11 reproduces Figure 11: PolarDB-MP vs the Taurus-MM-like log-ship
// baseline under the heaviest-sharing SysBench settings of Taurus-MM's
// evaluation — read-write at 50% shared and write-only at 30% shared.
// Paper shape: MP's 8-node scalability 5.64x (rw) / 4.62x (wo) vs
// Taurus-MM's 1.88x / 1.5x; 8-node throughput ratios ~3.17x / ~4.02x.
func Fig11(o Options) []SweepPoint {
	o.fill()
	o.header("Figure 11: vs Taurus-MM-like log-ship (rw@50% shared, wo@30% shared)")
	cases := []struct {
		kind   workload.SysbenchKind
		shared int
	}{
		{workload.SysbenchReadWrite, 50},
		{workload.SysbenchWriteOnly, 30},
	}
	if o.Quick {
		cases = cases[1:]
	}
	var points []SweepPoint
	for _, c := range cases {
		for _, n := range o.Nodes {
			tps, res := o.runSysbench("polardb-mp", c.kind, c.shared, n, o.newMP)
			points = append(points, SweepPoint{System: "polardb-mp", Kind: c.kind.String(),
				Shared: c.shared, Nodes: n, TPS: tps, Aborts: res.Aborts})
			tps, res = o.runSysbench("log-ship", c.kind, c.shared, n, o.newLogShip)
			points = append(points, SweepPoint{System: "log-ship(taurus)", Kind: c.kind.String(),
				Shared: c.shared, Nodes: n, TPS: tps, Aborts: res.Aborts})
		}
	}
	normalize(points)
	o.printf("%-18s %-12s %7s %6s %12s %8s\n", "system", "workload", "shared%", "nodes", "tps(sim)", "scaling")
	for _, p := range points {
		o.printf("%-18s %-12s %7d %6d %12.0f %7.2fx\n", p.System, p.Kind, p.Shared, p.Nodes, p.TPS, p.Scaling)
	}
	return points
}

// Fig12 reproduces Figure 12: the light-conflict comparison (10% shared)
// against both Aurora-MM-like OCC and the Taurus-MM-like baseline, each a
// configuration of the real engine (newAurora, newLogShip). Paper
// shape: even at 10% shared, Aurora-MM's write-only 2/4-node clusters are
// at or below single-node throughput; MP scales near-linearly.
func Fig12(o Options) []SweepPoint {
	o.fill()
	o.header("Figure 12: light conflict (10% shared) vs Aurora-MM-like OCC and log-ship")
	kinds := []workload.SysbenchKind{workload.SysbenchReadWrite, workload.SysbenchWriteOnly}
	if o.Quick {
		kinds = kinds[1:]
	}
	var points []SweepPoint
	for _, kind := range kinds {
		for _, n := range o.Nodes {
			tps, res := o.runSysbench("polardb-mp", kind, 10, n, o.newMP)
			points = append(points, SweepPoint{System: "polardb-mp", Kind: kind.String(),
				Shared: 10, Nodes: n, TPS: tps, Aborts: res.Aborts})
			tps, res = o.runSysbench("log-ship", kind, 10, n, o.newLogShip)
			points = append(points, SweepPoint{System: "log-ship(taurus)", Kind: kind.String(),
				Shared: 10, Nodes: n, TPS: tps, Aborts: res.Aborts})
			if n <= 4 { // Aurora-MM supported at most 4 nodes
				tps, res = o.runSysbench("occ(aurora)", kind, 10, n, o.newAurora)
				points = append(points, SweepPoint{System: "occ(aurora)", Kind: kind.String(),
					Shared: 10, Nodes: n, TPS: tps, Aborts: res.Aborts})
			}
		}
	}
	normalize(points)
	o.printf("%-18s %-12s %6s %12s %8s %8s\n", "system", "workload", "nodes", "tps(sim)", "scaling", "aborts")
	for _, p := range points {
		o.printf("%-18s %-12s %6d %12.0f %7.2fx %8d\n", p.System, p.Kind, p.Nodes, p.TPS, p.Scaling, p.Aborts)
	}
	return points
}

// Fig13 reproduces Figure 13: insert throughput and single-thread latency
// as global secondary indexes are added, PolarDB-MP vs shared-nothing 2PC.
// Paper shape: MP loses ~20% with one GSI; the shared-nothing systems lose
// 60-70% with one and fall below 20% of baseline at eight.
func Fig13(o Options) []SweepPoint {
	o.fill()
	o.header("Figure 13: global secondary index updates vs shared-nothing 2PC")
	indexCounts := []int{0, 1, 2, 4, 8}
	if o.Quick {
		indexCounts = []int{0, 1, 4}
	}
	nodes := 4
	var points []SweepPoint
	for _, k := range indexCounts {
		// PolarDB-MP.
		mp, err := o.newMP(nodes)
		if err != nil {
			panic(err)
		}
		g := workload.DefaultGSI(k)
		g.StatementDelay = o.stmtDelay()
		if err := g.Load(mp); err != nil {
			panic(err)
		}
		res := o.runner().Run(mp, g.TxFunc)
		lat1 := o.singleThreadLatency(mp, g)
		mp.Cluster.Close()
		points = append(points, SweepPoint{System: "polardb-mp", Kind: "gsi", Shared: k,
			Nodes: nodes, TPS: o.simTPS(res), P95: lat1})

		// Shared-nothing 2PC. Each participant's log force is a Raft
		// majority round (TiDB/CockroachDB/OceanBase replicate every
		// write through consensus, ~0.5-2ms in-DC), which is the cost
		// asymmetry §5.4 exploits: PolarDB-MP forces its log to an
		// append-optimized shared store in tens of microseconds.
		lat := baseline.DefaultShardedLatency()
		s := time.Duration(o.Scale)
		lat.RPC *= s
		lat.LogSync = 400 * time.Microsecond * s
		sn := baseline.NewSharded(nodes, lat)
		g2 := workload.DefaultGSI(k)
		g2.StatementDelay = o.stmtDelay()
		if err := g2.Load(sn); err != nil {
			panic(err)
		}
		res2 := o.runner().Run(sn, g2.TxFunc)
		lat2 := o.singleThreadLatency(sn, g2)
		points = append(points, SweepPoint{System: "shared-nothing", Kind: "gsi", Shared: k,
			Nodes: nodes, TPS: o.simTPS(res2), P95: lat2})
	}
	// Normalize against the same system's 0-GSI point (Fig 13's y-axis).
	base := map[string]float64{}
	for _, p := range points {
		if p.Shared == 0 {
			base[p.System] = p.TPS
		}
	}
	for i := range points {
		if b := base[points[i].System]; b > 0 {
			points[i].Scaling = points[i].TPS / b
		}
	}
	o.printf("%-16s %5s %12s %10s %14s\n", "system", "#GSI", "tps(sim)", "vs-0-GSI", "latency(sim)")
	for _, p := range points {
		o.printf("%-16s %5d %12.0f %9.0f%% %14v\n", p.System, p.Shared, p.TPS,
			p.Scaling*100, p.P95.Round(10*time.Microsecond))
	}
	return points
}

// singleThreadLatency measures mean insert latency with one client thread,
// in simulated time.
func (o Options) singleThreadLatency(db workload.DB, g *workload.GSI) time.Duration {
	txf := g.TxFunc(0, 99)
	var total time.Duration
	const n = 30
	for i := 0; i < n; i++ {
		start := time.Now()
		for txf(db, 0) != nil {
		}
		total += time.Since(start)
	}
	return total / n / time.Duration(o.Scale)
}

// Fig15 reproduces Figure 15 (the recovery evaluation of §5.5): a two-node
// cluster on disjoint table groups; node 1 is killed mid-run and restarted;
// node 2's throughput must be undisturbed and node 1 must return quickly,
// recovering mostly from the DBP rather than storage.
func Fig15(o Options) (node1, node2 []float64, recovery time.Duration) {
	o.fill()
	o.header("Figure 15: recovery — kill node 1 at t, node 2 unaffected")
	db, err := o.newMP(2)
	if err != nil {
		panic(err)
	}
	defer db.Cluster.Close()
	// Disjoint groups: 0% shared, exactly the paper's setup.
	sb := workload.DefaultSysbench(workload.SysbenchReadWrite, 2, 0)
	sb.TablesPerGroup = 2
	sb.RowsPerTable = 600
	sb.StatementDelay = o.stmtDelay()
	if err := sb.Load(db); err != nil {
		panic(err)
	}
	// Checkpoint the freshly-loaded state (production checkpoints run
	// continuously) so crash recovery replays only the run's log tail.
	if err := db.Cluster.Checkpoint(); err != nil {
		panic(err)
	}

	interval := o.Duration / 4
	tl1 := metrics.NewTimeline(interval)
	tl2 := metrics.NewTimeline(interval)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		tl := tl1
		if node == 1 {
			tl = tl2
		}
		for th := 0; th < o.Threads; th++ {
			wg.Add(1)
			go func(node, th int, tl *metrics.Timeline) {
				defer wg.Done()
				txf := sb.TxFunc(node, th)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := txf(db, node); err == nil {
						tl.Tick(1)
					} else if !common.IsRetryable(err) {
						time.Sleep(time.Millisecond) // node down
					}
				}
			}(node, th, tl)
		}
	}

	// Run, crash node 1, restart it immediately, keep running.
	time.Sleep(2 * o.Duration)
	db.Cluster.CrashNode(1)
	crashAt := time.Now()
	if _, err := db.Cluster.RestartNode(1); err != nil {
		panic(err)
	}
	recovery = time.Since(crashAt)
	time.Sleep(2 * o.Duration)
	close(stop)
	wg.Wait()

	node1 = tl1.Rates()
	node2 = tl2.Rates()
	if len(node1) > 1 {
		node1 = node1[:len(node1)-1] // drop the partial final bucket
	}
	if len(node2) > 1 {
		node2 = node2[:len(node2)-1]
	}
	o.printf("node 1 recovery completed in %v real (%v simulated)\n",
		recovery.Round(time.Millisecond), (recovery * time.Duration(o.Scale)).Round(time.Millisecond))
	o.printf("%8s %14s %14s\n", "t(sim)", "node1 tps", "node2 tps")
	for i := 0; i < len(node1) || i < len(node2); i++ {
		var r1, r2 float64
		if i < len(node1) {
			r1 = node1[i] * float64(o.Scale)
		}
		if i < len(node2) {
			r2 = node2[i] * float64(o.Scale)
		}
		o.printf("%8v %14.0f %14.0f\n",
			(time.Duration(i) * interval * time.Duration(o.Scale)).Round(time.Millisecond), r1, r2)
	}
	return node1, node2, recovery
}
