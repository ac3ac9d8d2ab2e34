package figures

import (
	"time"

	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/workload"
)

// AblationResult is one on/off comparison.
type AblationResult struct {
	Name     string
	OnTPS    float64
	OffTPS   float64
	OnNote   string
	OffNote  string
	Improves float64 // OnTPS / OffTPS
}

// Ablations measures the design choices §4 calls out, each on vs off, under
// a 4-node 50%-shared read-write SysBench:
//
//   - lazy PLock release (§4.3.1) — saves lock RPCs on locality;
//   - Buffer Fusion's DBP (§4.2) — vs the storage + log-replay path;
//   - commit-time CTS stamping (§4.1) — saves remote TIT reads;
//   - Linear Lamport timestamp reuse (§4.1) — saves TSO fetches.
func Ablations(o Options) []AblationResult {
	o.fill()
	o.header("Ablations: §4 design choices on vs off (sysbench rw, 50% shared, 4 nodes)")
	nodes := 4

	run := func(mutate func(*core.Config)) (float64, *netsrv.DB) {
		cfg := o.clusterConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		db, err := netsrv.NewDB(cfg, nodes)
		if err != nil {
			panic(err)
		}
		sb := workload.DefaultSysbench(workload.SysbenchReadWrite, nodes, 50)
		sb.TablesPerGroup = 2
		sb.RowsPerTable = 800
		sb.StatementDelay = o.stmtDelay()
		if err := sb.Load(db); err != nil {
			panic(err)
		}
		res := o.runner().Run(db, sb.TxFunc)
		return o.simTPS(res), db
	}

	var out []AblationResult
	record := func(name string, on, off float64, onNote, offNote string) {
		r := AblationResult{Name: name, OnTPS: on, OffTPS: off, OnNote: onNote, OffNote: offNote}
		if off > 0 {
			r.Improves = on / off
		}
		out = append(out, r)
	}

	// Lazy PLock release: compare remote lock acquisitions.
	onTPS, db := run(nil)
	onRemote := sumRemoteAcquires(db)
	db.Cluster.Close()
	offTPS, db := run(func(c *core.Config) { c.DisableLazyPLock = true })
	offRemote := sumRemoteAcquires(db)
	db.Cluster.Close()
	record("lazy-plock-release", onTPS, offTPS,
		noteCount("remote lock RPCs", onRemote), noteCount("remote lock RPCs", offRemote))

	// Buffer Fusion DBP vs storage page sync.
	onTPS, db = run(nil)
	db.Cluster.Close()
	offTPS, db = run(func(c *core.Config) { c.StoragePageSync = true })
	db.Cluster.Close()
	record("buffer-fusion-dbp", onTPS, offTPS, "DBP page transfer", "storage+replay transfer")

	// CTS stamping.
	onTPS, db = run(nil)
	db.Cluster.Close()
	offTPS, db = run(func(c *core.Config) { c.DisableCTSStamp = true })
	db.Cluster.Close()
	record("cts-row-stamping", onTPS, offTPS, "CTS in-row fast path", "always TIT lookup")

	// Linear Lamport timestamp reuse.
	onTPS, db = run(nil)
	db.Cluster.Close()
	offTPS, db = run(func(c *core.Config) { c.DisableLamport = true })
	db.Cluster.Close()
	record("lamport-tso-reuse", onTPS, offTPS, "reuse recent timestamps", "fetch per statement")

	o.printf("%-22s %12s %12s %8s  %s | %s\n", "design choice", "on tps", "off tps", "gain", "on", "off")
	for _, r := range out {
		o.printf("%-22s %12.0f %12.0f %7.2fx  %s | %s\n",
			r.Name, r.OnTPS, r.OffTPS, r.Improves, r.OnNote, r.OffNote)
	}
	return out
}

func sumRemoteAcquires(db *netsrv.DB) int64 {
	var total int64
	for _, n := range db.Cluster.Nodes() {
		total += n.PLocks().RemoteAcquires.Load()
	}
	return total
}

func noteCount(what string, n int64) string {
	return what + ": " + itoa(n)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Micro measures the §4.1 claim that TSO fetches complete "within several
// microseconds" and are not a bottleneck, plus the one-sided TIT read path.
// Results are real (unscaled) in-process costs standing in for one-sided
// RDMA verbs.
func Micro(o Options) (tsoFetch, titRead time.Duration) {
	o.fill()
	o.header("Micro: TSO fetch and remote TIT read (real in-process verb cost)")
	db, err := netsrv.NewDB(core.Config{}, 2)
	if err != nil {
		panic(err)
	}
	defer db.Cluster.Close()
	n1 := db.Cluster.Node(1)
	n2 := db.Cluster.Node(2)

	const iters = 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := n1.TxFusion().NextCommitCSN(); err != nil {
			panic(err)
		}
	}
	tsoFetch = time.Since(start) / iters

	tx, err := n2.Begin()
	if err != nil {
		panic(err)
	}
	g := tx.GTrxID()
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := n1.TxFusion().GetTrxCTS(g); err != nil {
			panic(err)
		}
	}
	titRead = time.Since(start) / iters
	tx.Rollback()

	st := db.Cluster.Stats()
	o.printf("TSO fetch (one-sided fetch-add): %v/op\n", tsoFetch)
	o.printf("remote TIT read (one-sided read): %v/op\n", titRead)
	o.printf("fabric bytes moved: read %d, written %d (%d reads, %d writes, %d atomics, %d rpcs)\n",
		st.Fabric.BytesRead, st.Fabric.BytesWrite,
		st.Fabric.Reads, st.Fabric.Writes, st.Fabric.Atomics, st.Fabric.RPCs)
	return tsoFetch, titRead
}
