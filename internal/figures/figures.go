// Package figures regenerates every table and figure of the paper's
// evaluation (§5) on a single machine.
//
// # Scaled-time simulation
//
// The paper's testbed is a fleet of multi-core hosts on a 100Gb RDMA
// network; this reproduction typically runs on a small (often single-core)
// box whose sleep granularity is ~1ms. Wall-clock throughput therefore
// cannot express node-count scaling directly, so the harness runs a scaled
// simulation:
//
//   - every injected I/O latency is multiplied by Scale (default 25): a
//     100µs storage read sleeps 2.5ms of real time;
//   - per-statement engine service time (the CPU each node would burn) is
//     injected as a ~1ms real sleep ≈ 40µs of simulated time — the single
//     benchmark core is the simulator, not the bottleneck;
//   - RDMA verbs keep their real in-process cost (sub-µs), which at this
//     scale correctly models "orders of magnitude cheaper than storage".
//
// Because sleeping goroutines overlap perfectly, simulated throughput
// (reported as measured × Scale) scales with nodes exactly as far as the
// protocols allow — which is what the paper's figures measure. Absolute
// numbers are not comparable to the paper's testbed (see EXPERIMENTS.md);
// shapes and ratios are.
package figures

import (
	"fmt"
	"io"
	"os"
	"time"

	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/storage"
	"polardbmp/internal/trace"
	"polardbmp/internal/workload"
)

// Options configures a figure run.
type Options struct {
	// Out receives the printed rows (default os.Stdout).
	Out io.Writer
	// Scale is the latency time-scale factor (default 25).
	Scale int
	// Duration is the measured window per configuration, in real time
	// (default 3s; Quick: 1.2s).
	Duration time.Duration
	// Warmup precedes each measurement (default 500ms).
	Warmup time.Duration
	// Threads per node (default 4).
	Threads int
	// Nodes lists the cluster sizes to sweep (default 1,2,4,8).
	Nodes []int
	// Quick trims the sweep for CI/bench use.
	Quick bool
	// Trace enables the commit-path span tracer on every node of every
	// cluster the run builds (TraceRun sets it implicitly).
	Trace bool
	// SlowTx, when > 0, logs transactions slower than this into the
	// per-node slow-transaction log (implies Trace).
	SlowTx time.Duration
	// CC selects the concurrency-control engine for every cluster the run
	// builds ("2pl" default, "occ" optimistic; see core.Config.CC).
	CC string
}

func (o *Options) fill() {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Scale <= 0 {
		o.Scale = 25
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
		if o.Quick {
			o.Duration = 1200 * time.Millisecond
		}
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
		if o.Quick {
			o.Warmup = 200 * time.Millisecond
		}
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if len(o.Nodes) == 0 {
		o.Nodes = []int{1, 2, 4, 8}
		if o.Quick {
			o.Nodes = []int{1, 2, 4}
		}
	}
}

// stmtDelay is the injected per-statement service time in real time; at the
// default scale it simulates ~40µs of engine CPU per statement.
func (o Options) stmtDelay() time.Duration { return time.Millisecond }

// storageLatency returns the scaled shared-storage cost model.
func (o Options) storageLatency() storage.Latency {
	base := storage.DefaultLatency()
	s := time.Duration(o.Scale)
	return storage.Latency{
		PageRead:  base.PageRead * s,
		PageWrite: base.PageWrite * s,
		LogAppend: base.LogAppend * s,
		LogRead:   base.LogRead * s,
	}
}

// simTPS converts a measured result into simulated transactions/second.
func (o Options) simTPS(res workload.Result) float64 {
	return res.TPS() * float64(o.Scale)
}

// clusterConfig is the engine configuration for figure runs.
func (o Options) clusterConfig() core.Config {
	cfg := core.Config{
		CC:              o.CC,
		LBPFrames:       8192,
		DBPFrames:       32768,
		StorageLatency:  o.storageLatency(),
		LockWaitTimeout: 10 * time.Second, // scaled time dilates waits too
	}
	if o.Trace || o.SlowTx > 0 {
		cfg.Trace = &trace.Config{SlowTxThreshold: o.SlowTx}
	}
	return cfg
}

// newMP builds an n-node PolarDB-MP under the scaled latency model.
func (o Options) newMP(n int) (*netsrv.DB, error) {
	return netsrv.NewDB(o.clusterConfig(), n)
}

// newLogShip builds the Taurus-MM-like baseline: identical engine, but page
// synchronization through the page store + log replay instead of the DBP.
func (o Options) newLogShip(n int) (*netsrv.DB, error) {
	cfg := o.clusterConfig()
	cfg.StoragePageSync = true
	return netsrv.NewDB(cfg, n)
}

// newAurora builds the Aurora-MM-like baseline: the log-ship engine under
// optimistic concurrency control, so write conflicts surface at commit as
// the retryable errors §2.3 describes. It validates rows, not pages.
func (o Options) newAurora(n int) (*netsrv.DB, error) {
	cfg := o.clusterConfig()
	cfg.CC = core.CCOCC
	cfg.StoragePageSync = true
	return netsrv.NewDB(cfg, n)
}

func (o Options) runner() workload.Runner {
	return workload.Runner{
		Threads:  o.Threads,
		Duration: o.Duration,
		Warmup:   o.Warmup,
	}
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

func (o Options) header(title string) {
	o.printf("\n=== %s ===\n", title)
	o.printf("(scaled-time simulation: scale=%dx, %v/config, %d threads/node; tps are simulated tx/s)\n",
		o.Scale, o.Duration, o.Threads)
}

// SweepPoint is one measured configuration.
type SweepPoint struct {
	System  string
	Kind    string
	Shared  int
	Nodes   int
	TPS     float64
	Aborts  int64
	P95     time.Duration
	Scaling float64 // TPS normalized to the 1-node point of the same series
}

// normalize fills Scaling against each (System, Kind, Shared) series' 1-node
// point.
func normalize(points []SweepPoint) {
	base := map[string]float64{}
	for _, p := range points {
		if p.Nodes == 1 {
			base[p.System+p.Kind+fmt.Sprint(p.Shared)] = p.TPS
		}
	}
	for i := range points {
		if b := base[points[i].System+points[i].Kind+fmt.Sprint(points[i].Shared)]; b > 0 {
			points[i].Scaling = points[i].TPS / b
		}
	}
}
