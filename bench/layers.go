package main

// Per-layer metrics from counter deltas: every number here is read from the
// daemons' GET /stats (or Cluster.Stats()) before and after the traced
// closed-loop window and divided by the commits the clients counted.

import (
	"time"

	"polardbmp/internal/core"
)

func netFrames(n *core.NetStats) (frames, bytes int64) {
	if n == nil {
		return 0, 0
	}
	return n.FramesIn + n.FramesOut, n.BytesIn + n.BytesOut
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stageCount sums a tracer stage's observation count in a snapshot.
func stageCount(s core.ClusterStats, stage string) int64 {
	for _, st := range s.Stages {
		if st.Stage == stage {
			return st.Count
		}
	}
	return 0
}

// counterMetrics fills vals with the (a) metrics for the window a -> b that
// saw `commits` client commits on env e.
func counterMetrics(vals map[string]float64, e *env, a, b statsSnap, commits int) {
	per := func(delta int64) float64 { return ratio(delta, int64(commits)) }

	// wire: the daemons' net section counts session frames and, on a
	// satellite link, fabric frames too.
	fa, ba := netFrames(a.seed.Net)
	fb, bb := netFrames(b.seed.Net)
	fsa, bsa := netFrames(a.sat.Net)
	fsb, bsb := netFrames(b.sat.Net)
	vals["wire.frames_per_tx"] = per(fb - fa + fsb - fsa)
	vals["wire.bytes_per_tx"] = per(bb - ba + bsb - bsa)

	ga, gba := netFrames(&a.gw.Net)
	gb, gbb := netFrames(&b.gw.Net)
	vals["gateway.frames_per_tx"] = per(gb - ga)
	vals["gateway.bytes_per_tx"] = per(gbb - gba)
	vals["gateway.sessions_per_backend"] = e.perBackend
	vals["gateway.placement_retries"] = float64(e.placementRetries)

	for _, side := range []struct {
		suffix string
		a, b   core.FabricStats
	}{{".seed", a.seed.Fabric, b.seed.Fabric}, {".sat", a.sat.Fabric, b.sat.Fabric}} {
		vals["rdma.reads_per_tx"+side.suffix] = per(side.b.Reads - side.a.Reads)
		vals["rdma.writes_per_tx"+side.suffix] = per(side.b.Writes - side.a.Writes)
		vals["rdma.atomics_per_tx"+side.suffix] = per(side.b.Atomics - side.a.Atomics)
		vals["rdma.rpcs_per_tx"+side.suffix] = per(side.b.RPCs - side.a.RPCs)
		vals["rdma.bytes_per_tx"+side.suffix] = per(side.b.BytesRead - side.a.BytesRead + side.b.BytesWrite - side.a.BytesWrite)
	}

	// The fusion servers, the shared store and the replicated PMFS tier all
	// live in the seed process (or the one in-process cluster).
	vals["lockfusion.plock_negotiations_per_tx"] = per(b.seed.Locks.PLockNegotiations - a.seed.Locks.PLockNegotiations)
	vals["lockfusion.rlock_waits_per_tx"] = per(b.seed.Locks.RLockWaits - a.seed.Locks.RLockWaits)
	vals["lockfusion.deadlocks"] = float64(b.seed.Deadlocks - a.seed.Deadlocks + b.sat.Deadlocks - a.sat.Deadlocks)
	vals["bufferfusion.dbp_resident_pages"] = float64(b.seed.DBPResident)
	vals["storage.page_reads_per_tx"] = per(b.seed.Storage.PageReads - a.seed.Storage.PageReads)
	vals["storage.log_syncs_per_tx"] = per(b.seed.Storage.LogSyncs - a.seed.Storage.LogSyncs)
	vals["storage.disk_bytes_per_tx"] = per(b.diskBytes - a.diskBytes)
	vals["pmfsrep.quorum_p50_us"] = us(b.seed.Pmfs.QuorumP50)
	vals["pmfsrep.quorum_p99_us"] = us(b.seed.Pmfs.QuorumP99)
	vals["pmfsrep.mirrored_bytes_per_tx"] = per(b.seed.Pmfs.MirroredBytes - a.seed.Pmfs.MirroredBytes)

	// Commit-path counters are per node, so both processes contribute.
	ca, cb := a.seed.Commit, b.seed.Commit
	sa, sb := a.sat.Commit, b.sat.Commit
	vals["core.pipeline_rides_per_tx"] = per(cb.PipelineRides - ca.PipelineRides + sb.PipelineRides - sa.PipelineRides)
	vals["core.aborts_per_tx"] = per(b.seed.Aborts - a.seed.Aborts + b.sat.Aborts - a.sat.Aborts)
	solo := cb.TSOSolo - ca.TSOSolo + sb.TSOSolo - sa.TSOSolo
	group := cb.TSOGroup - ca.TSOGroup + sb.TSOGroup - sa.TSOGroup
	vals["txfusion.tso_solo_frac"] = ratio(solo, solo+group)
	specHits := cb.SpecCTSHits - ca.SpecCTSHits + sb.SpecCTSHits - sa.SpecCTSHits
	specReads := cb.SpecCTSReads - ca.SpecCTSReads + sb.SpecCTSReads - sa.SpecCTSReads
	vals["txfusion.spec_cts_hit_frac"] = ratio(specHits, specReads)

	// Buffer-pool stage counts exist only where the engine tracer runs: the
	// in-process cluster opened WithTracer.
	if e.db == nil {
		for _, n := range []string{"bufferfusion.frame_local_per_tx", "bufferfusion.frame_dbp_per_tx",
			"bufferfusion.frame_storage_per_tx", "bufferfusion.lbp_hit_ratio"} {
			vals[n] = notObservable
		}
		return
	}
	local := stageCount(b.seed, "frame_local") - stageCount(a.seed, "frame_local")
	dbp := stageCount(b.seed, "frame_dbp") - stageCount(a.seed, "frame_dbp")
	stor := stageCount(b.seed, "frame_storage") - stageCount(a.seed, "frame_storage")
	vals["bufferfusion.frame_local_per_tx"] = per(local)
	vals["bufferfusion.frame_dbp_per_tx"] = per(dbp)
	vals["bufferfusion.frame_storage_per_tx"] = per(stor)
	vals["bufferfusion.lbp_hit_ratio"] = ratio(local, local+dbp+stor)
}
