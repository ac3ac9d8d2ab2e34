// Command mpchaos runs a multi-node read-write workload under a seeded
// fault-injection plan and verifies the cluster's crash-consistency
// invariants: committed data stays durable and visible from every node,
// rolled-back data disappears, the cluster converges once faults stop. With
// -proc it kills and partitions real mpserver/mpgateway processes instead;
// with -retries=false the transport retry layer is off and dropped ops leak
// to the application, which is why the layer exists. The workload, the plans
// and every verdict live in internal/chaos/harness (DESIGN.md §7); this file
// parses flags and turns violations into the exit code: 0 PASS, 1 invariant
// violated, 2 flag or setup error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"polardbmp/internal/chaos/harness"
)

func main() {
	var o harness.Options
	flag.StringVar(&o.Plan, "plan", "smoke", "fault plan: smoke, drop, lossy, slownode, stalledstorage, partition, crashnode, brownout, pmfsfailover, elastic, none")
	flag.Int64Var(&o.Seed, "seed", 1, "chaos seed (same seed + plan => same fault timeline)")
	flag.IntVar(&o.Nodes, "nodes", 3, "primary nodes")
	flag.IntVar(&o.Ops, "ops", 150, "transactions per node")
	flag.BoolVar(&o.Retries, "retries", true, "transient-fault retries in the fusion client paths")
	flag.StringVar(&o.CC, "cc", "", "concurrency-control engine: 2pl (default) or occ")
	flag.BoolVar(&o.Verbose, "v", false, "print the full fault timeline")
	flag.DurationVar(&o.Timeout, "timeout", 60*time.Second, "workload watchdog (a wedged run is an invariant violation)")
	flag.BoolVar(&o.Proc, "proc", false, "process-level chaos: spawn real mpserver/mpgateway processes and kill/partition them (ignores -plan)")
	flag.StringVar(&o.BinDir, "bin", "", "with -proc: directory holding prebuilt mpserver/mpgateway (empty = go build them)")
	flag.Parse()

	violations, err := harness.Run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Printf("  INVARIANT VIOLATED: %s\n", v)
	}
	if len(violations) > 0 {
		fmt.Println("verdict: FAIL")
		os.Exit(1)
	}
	fmt.Println("verdict: PASS")
}
