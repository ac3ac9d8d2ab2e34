package main

// Reconciliation: for each layer, the per-commit count read from the
// counters times the unit cost the probe pass measured, summed and set
// against the measured median transaction latency. What the sum does not
// reach is the cost nobody can yet state.

type reconRow struct {
	Layer  string  `json:"layer"`
	PerTx  float64 `json:"per_tx"`
	UnitUS float64 `json:"unit_us"`
	MS     float64 `json:"ms"`
}

// reconcile builds the table from the per-layer values of one traced run.
// stmts is the number of client statements (round trips) per transaction.
// Rows are chosen not to overlap: core.rw_commit_warm_us already contains an
// in-memory log sync and a k=3 TSO grant, so those probes are not added
// again; only what the deployed path adds on top is (directory sync, socket
// verbs, negotiated PLocks, non-local page fetches).
func reconcile(w *workloadSpec, v map[string]float64, stmts float64) (rows []reconRow, explainedMS float64) {
	add := func(layer string, perTx, unitUS float64) {
		if perTx <= 0 || unitUS <= 0 {
			return
		}
		rows = append(rows, reconRow{layer, perTx, unitUS, perTx * unitUS / 1e3})
		explainedMS += perTx * unitUS / 1e3
	}
	if w.Topo != topoLib {
		add("wire round trips", stmts, v["wire.ping_direct_us"])
		// The gateway's net counters see a relayed round trip as two frames.
		add("gateway relay hops", v["gateway.frames_per_tx"]/2, v["gateway.ping_hop_us"])
	}
	add("engine point reads", readsPerTx, v["core.get_warm_us"])
	if !w.ReadOnly {
		add("engine write+commit (warm, 1 node)", 1, v["core.rw_commit_warm_us"])
		add("log sync to directory", v["storage.log_syncs_per_tx"], v["storage.dir_log_sync_us"]-v["wal.sync_us"])
	}
	add("negotiated PLocks", v["lockfusion.plock_negotiations_per_tx"], v["lockfusion.plock_negotiated_us"])
	if w.Topo == topoLib {
		add("DBP page fetches", v["bufferfusion.frame_dbp_per_tx"], v["bufferfusion.get_dbp_us"])
		add("storage page fetches", v["bufferfusion.frame_storage_per_tx"], v["bufferfusion.get_storage_us"])
	} else {
		add("storage page reads", v["storage.page_reads_per_tx"], v["bufferfusion.get_storage_us"])
		// The satellite reaches PMFS and storage over the socket fabric.
		add("socket reads (satellite)", v["rdma.reads_per_tx.sat"], v["rdma.socket_read_us"])
		add("socket writes (satellite)", v["rdma.writes_per_tx.sat"], v["rdma.socket_writev_us"])
		add("socket atomics (satellite)", v["rdma.atomics_per_tx.sat"], v["rdma.socket_fetchadd_us"])
		add("socket RPCs (satellite)", v["rdma.rpcs_per_tx.sat"], v["rdma.socket_call_us"])
	}
	return rows, explainedMS
}
