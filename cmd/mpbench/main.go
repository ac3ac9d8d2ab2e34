// Command mpbench regenerates the tables and figures of the PolarDB-MP
// paper's evaluation (§5) under the scaled-time simulation described in
// internal/figures.
//
// Usage:
//
//	mpbench -fig all                 # every figure (long)
//	mpbench -fig 7 -quick            # one figure, trimmed sweep
//	mpbench -fig 11 -nodes 1,2,4,8 -dur 3s -threads 4
//	mpbench -fig ablations           # §4 design-choice ablations
//	mpbench -fig micro               # TSO / TIT one-sided verb costs
//	mpbench -trace trace.json        # rw/50 per-stage commit-path decomposition
//	mpbench -connect host:7090 -dur 5s -threads 8
//	                                 # bank workload against a live mpserver/mpgateway
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"polardbmp/internal/core"
	"polardbmp/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "figure to run: 7,8,9,10,11,12,13,15,ablations,micro,all")
	quick := flag.Bool("quick", false, "trimmed sweep (fewer configs, shorter runs)")
	dur := flag.Duration("dur", 0, "measured duration per config (default 3s, quick 1.2s)")
	warmup := flag.Duration("warmup", 0, "warmup per config")
	threads := flag.Int("threads", 0, "threads per node (default 4)")
	scale := flag.Int("scale", 0, "latency time-scale factor (default 25)")
	nodes := flag.String("nodes", "", "comma-separated node counts (default 1,2,4,8)")
	cc := flag.String("cc", "", "concurrency-control engine: 2pl (default) or occ")
	tracePath := flag.String("trace", "", "run the rw/50 cell with the commit-path tracer on and write the per-stage latency/fabric-op decomposition as JSON to this path (honors -nodes; default 8)")
	slowTx := flag.Duration("slowtx", 0, "with -trace: also log transactions slower than this into the snapshot")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this path")
	connect := flag.String("connect", "", "run the bank invariant workload against a live mpserver/mpgateway session address instead of the in-process figures")
	flag.Parse()

	if *connect != "" {
		os.Exit(runConnect(*connect, *dur, *threads))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
		}
	}()

	if *cc != "" && !core.ValidCC(*cc) {
		fmt.Fprintf(os.Stderr, "unknown -cc engine %q (want 2pl or occ)\n", *cc)
		os.Exit(2)
	}
	o := figures.Options{
		Quick:    *quick,
		Duration: *dur,
		Warmup:   *warmup,
		Threads:  *threads,
		Scale:    *scale,
		CC:       *cc,
	}
	if *nodes != "" {
		for _, part := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad -nodes value %q\n", part)
				os.Exit(2)
			}
			o.Nodes = append(o.Nodes, n)
		}
	}

	if *tracePath != "" {
		start := time.Now()
		o.SlowTx = *slowTx
		if _, err := figures.TraceRun(o, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[trace done in %v]\n", time.Since(start).Round(time.Second))
		return
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "7":
			figures.Fig7(o)
		case "8":
			figures.Fig8(o)
		case "9":
			figures.Fig9(o)
		case "10":
			figures.Fig10(o)
		case "11":
			figures.Fig11(o)
		case "12":
			figures.Fig12(o)
		case "13":
			figures.Fig13(o)
		case "15":
			figures.Fig15(o)
		case "ablations":
			figures.Ablations(o)
		case "micro":
			figures.Micro(o)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("[%s done in %v]\n", name, time.Since(start).Round(time.Second))
	}

	if *fig == "all" {
		for _, name := range []string{"micro", "7", "8", "9", "10", "11", "12", "13", "15", "ablations"} {
			run(name)
		}
		return
	}
	run(*fig)
}
