package main

// The metric catalogue and the result documents. BENCHMARK.json repeats the
// catalogue for the driver; TestManifestMatchesCatalogue keeps them equal.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the cluster sees, measured with no
// tracer and no client-side spans. Bound is the share of the parent's
// median by which a metric may worsen before a change is refused: about
// twice the widest run-to-run spread seen on the reference host (README.md,
// "Repeatability"), which is set by the host's CPU, not by the run length.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"tps", "tx/s", higher, 0.20},
	{"tx_p50_ms", "ms", lower, 0.20},
	{"ol_p50_ms", "ms", lower, 0.20},
	{"cpu_ms_per_tx", "ms", lower, 0.20},
	{"rss_mb", "MiB", lower, 0.15},
}

// notObservable is reported for a layer count a workload has no way to read
// from outside the daemons (the engine's stage counters need WithTracer,
// which only the in-process workload can switch on).
const notObservable = -1

// probeDefs is the probe pass: the cost of one unit of each layer's counter.
var probeDefs = []metricDef{
	{Name: "wire.frame_codec_ns", Unit: "ns", Better: lower},
	{Name: "wire.ping_direct_us", Unit: "us", Better: lower},
	{Name: "wire.get_direct_us", Unit: "us", Better: lower},
	{Name: "wire.get_gateway_us", Unit: "us", Better: lower},
	{Name: "gateway.ping_hop_us", Unit: "us", Better: lower},
	{Name: "core.get_warm_us", Unit: "us", Better: lower},
	{Name: "core.rw_commit_warm_us", Unit: "us", Better: lower},
	{Name: "page.marshal_us", Unit: "us", Better: lower},
	{Name: "page.unmarshal_us", Unit: "us", Better: lower},
	{Name: "rdma.inproc_read64_ns", Unit: "ns", Better: lower},
	{Name: "rdma.socket_read_us", Unit: "us", Better: lower},
	{Name: "rdma.socket_writev_us", Unit: "us", Better: lower},
	{Name: "rdma.socket_fetchadd_us", Unit: "us", Better: lower},
	{Name: "rdma.socket_call_us", Unit: "us", Better: lower},
	{Name: "pmfsrep.fetchadd_k1_us", Unit: "us", Better: lower},
	{Name: "pmfsrep.fetchadd_k3_us", Unit: "us", Better: lower},
	{Name: "txfusion.next_csn_us", Unit: "us", Better: lower},
	{Name: "txfusion.get_trx_cts_remote_us", Unit: "us", Better: lower},
	{Name: "lockfusion.plock_retained_ns", Unit: "ns", Better: lower},
	{Name: "lockfusion.plock_negotiated_us", Unit: "us", Better: lower},
	{Name: "bufferfusion.get_lbp_hit_ns", Unit: "ns", Better: lower},
	{Name: "bufferfusion.get_dbp_us", Unit: "us", Better: lower},
	{Name: "bufferfusion.get_storage_us", Unit: "us", Better: lower},
	{Name: "wal.append_ns", Unit: "ns", Better: lower},
	{Name: "wal.sync_us", Unit: "us", Better: lower},
	{Name: "storage.dir_log_sync_us", Unit: "us", Better: lower},
	{Name: "storage.remote_log_append_us", Unit: "us", Better: lower},
}

// demoted are the end-to-end candidates that do not repeat within a tenth on
// the reference host, or are always zero (spreads in README.md), plus the
// generator's own lateness. Every run measures them; only a traced run
// reports them to the driver, as per-layer metrics.
var demoted = []metricDef{
	{Name: "tx_p99_ms", Unit: "ms", Better: lower},
	{Name: "ol_p99_ms", Unit: "ms", Better: lower},
	{Name: "fail_frac", Unit: "ratio", Better: lower},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: lower},
}

// counterDefs are read from the daemons' counters over the traced
// closed-loop window and divided by the commits in it, plus the overhead of
// the tracing itself.
var counterDefs = []metricDef{
	{Name: "trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "wire.frames_per_tx", Unit: "count", Better: lower},
	{Name: "wire.bytes_per_tx", Unit: "B", Better: lower},
	{Name: "gateway.frames_per_tx", Unit: "count", Better: lower},
	{Name: "gateway.bytes_per_tx", Unit: "B", Better: lower},
	{Name: "gateway.sessions_per_backend", Unit: "count", Better: lower},
	{Name: "gateway.placement_retries", Unit: "count", Better: lower},
	{Name: "rdma.reads_per_tx.seed", Unit: "count", Better: lower},
	{Name: "rdma.writes_per_tx.seed", Unit: "count", Better: lower},
	{Name: "rdma.atomics_per_tx.seed", Unit: "count", Better: lower},
	{Name: "rdma.rpcs_per_tx.seed", Unit: "count", Better: lower},
	{Name: "rdma.bytes_per_tx.seed", Unit: "B", Better: lower},
	{Name: "rdma.reads_per_tx.sat", Unit: "count", Better: lower},
	{Name: "rdma.writes_per_tx.sat", Unit: "count", Better: lower},
	{Name: "rdma.atomics_per_tx.sat", Unit: "count", Better: lower},
	{Name: "rdma.rpcs_per_tx.sat", Unit: "count", Better: lower},
	{Name: "rdma.bytes_per_tx.sat", Unit: "B", Better: lower},
	{Name: "lockfusion.plock_negotiations_per_tx", Unit: "count", Better: lower},
	{Name: "lockfusion.rlock_waits_per_tx", Unit: "count", Better: lower},
	{Name: "lockfusion.deadlocks", Unit: "count", Better: lower},
	{Name: "bufferfusion.dbp_resident_pages", Unit: "count", Better: lower},
	{Name: "bufferfusion.frame_local_per_tx", Unit: "count", Better: higher},
	{Name: "bufferfusion.frame_dbp_per_tx", Unit: "count", Better: lower},
	{Name: "bufferfusion.frame_storage_per_tx", Unit: "count", Better: lower},
	{Name: "bufferfusion.lbp_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "storage.page_reads_per_tx", Unit: "count", Better: lower},
	{Name: "storage.log_syncs_per_tx", Unit: "count", Better: lower},
	{Name: "storage.disk_bytes_per_tx", Unit: "B", Better: lower},
	{Name: "core.pipeline_rides_per_tx", Unit: "count", Better: higher},
	{Name: "core.aborts_per_tx", Unit: "count", Better: lower},
	{Name: "core.reopen_ms", Unit: "ms", Better: lower},
	{Name: "txfusion.tso_solo_frac", Unit: "ratio", Better: higher},
	{Name: "txfusion.spec_cts_hit_frac", Unit: "ratio", Better: higher},
	{Name: "pmfsrep.quorum_p50_us", Unit: "us", Better: lower},
	{Name: "pmfsrep.quorum_p99_us", Unit: "us", Better: lower},
	{Name: "pmfsrep.mirrored_bytes_per_tx", Unit: "B", Better: lower},
}

// spanDefs are the statement spans the benchmark records around its own
// calls into the session.
var spanDefs = []metricDef{
	{Name: "client.begin_p50_us", Unit: "us", Better: lower},
	{Name: "client.begin_p99_us", Unit: "us", Better: lower},
	{Name: "client.get_p50_us", Unit: "us", Better: lower},
	{Name: "client.get_p99_us", Unit: "us", Better: lower},
	{Name: "client.get_for_update_p50_us", Unit: "us", Better: lower},
	{Name: "client.get_for_update_p99_us", Unit: "us", Better: lower},
	{Name: "client.update_p50_us", Unit: "us", Better: lower},
	{Name: "client.update_p99_us", Unit: "us", Better: lower},
	{Name: "client.commit_p50_us", Unit: "us", Better: lower},
	{Name: "client.commit_p99_us", Unit: "us", Better: lower},
}

// reconDefs set per-commit counts x probe unit costs against tx_p50_ms.
var reconDefs = []metricDef{
	{Name: "recon.explained_ms", Unit: "ms", Better: higher},
	{Name: "recon.unexplained_frac", Unit: "ratio", Better: lower},
}

// perLayer is everything a traced run reports. Informational: no bounds.
var perLayer = slices.Concat(demoted, counterDefs, spanDefs, probeDefs, reconDefs)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

// fill builds the set for defs from vals; a missing value is a bug in the
// harness, so it is reported rather than papered over.
func fill(defs []metricDef, vals map[string]float64) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// runResult is one workload run. The driver reads only the four contract
// keys; the rest documents the run for people and for -compare.
type runResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	Workload string `json:"workload,omitempty"`
	// Info carries, on an untraced run, the end-to-end candidates that were
	// demoted to per-layer metrics: printed and stored, never gated.
	Info    metricSet         `json:"info,omitempty"`
	Samples map[string]int    `json:"samples,omitempty"`
	Recon   []reconRow        `json:"reconciliation,omitempty"`
	Notes   map[string]string `json:"notes,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
}

// contractLine is the last line of standard output the driver parses.
func (r *runResult) contractLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}

// print lists every metric by name with its unit, then the sample counts
// behind the percentiles and the reconciliation table if there is one.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, d := range demoted {
		if m, ok := r.Info[d.Name]; ok {
			fmt.Fprintf(w, "  info: %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples: %-31s %14d\n", k, r.Samples[k])
	}
	keys = keys[:0]
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  note: %s = %s\n", k, r.Notes[k])
	}
	if len(r.Recon) > 0 {
		fmt.Fprintf(w, "  reconciliation against tx_p50_ms (count per tx x unit cost):\n")
		for _, row := range r.Recon {
			fmt.Fprintf(w, "    %-34s %10.3f x %10.3f us = %8.4f ms\n", row.Layer, row.PerTx, row.UnitUS, row.MS)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}

// resultFile is what -out writes and -compare reads: one entry per pass
// over the workloads (-repeat makes several).
type resultFile struct {
	Seconds float64      `json:"seconds"`
	Traced  bool         `json:"traced"`
	Passes  []resultPass `json:"passes"`
	// Claim is always null: the benchmark measures, it does not claim.
	Claim *string `json:"claim"`
}

type resultPass struct {
	Seed      int64                 `json:"seed"`
	Workloads map[string]*runResult `json:"workloads"`
}

func writeResultFile(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
