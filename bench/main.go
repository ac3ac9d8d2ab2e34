// Command bench is the wall-clock, layered benchmark of the deployed
// cluster: gateway -> wire -> mpserver -> socket fabric -> PMFS + storage,
// plus one in-process workload with no network at all. README.md explains
// the workloads, the layers and how the metrics interact.
//
// The benchmark driver runs one workload per invocation:
//
//	go run ./bench --workload gw_rw_shared --seed 1 --seconds 12 --trace 0
//
// and reads the JSON object on the last line of standard output. By hand:
//
//	go run ./bench -seed 1 [-out file]   every workload, end-to-end metrics
//	go run ./bench -traced -seed 1       per-layer run: spans, counters, probes
//	go run ./bench -quick                a smoke of the whole harness in <60 s
//	go run ./bench -compare A.json B.json
//	go run ./bench -repro lbp-overflow
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// Defaults of a run by hand; the driver passes --seconds itself (run_seconds
// in BENCHMARK.json is the same number).
const (
	defaultSeconds = 12
	maxClusters    = 3 // fresh clusters per untraced run; a traced run uses one
)

func main() {
	workload := flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
	seed := flag.Int64("seed", 1, "seed of the key streams")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time per workload, split 2:1 between closed and open loop")
	trace := flag.Int("trace", 0, "driver form of -traced: 0 = end-to-end metrics, 1 = per-layer metrics")
	traced := flag.Bool("traced", false, "per-layer run: client spans, counter deltas, probe pass, reconciliation")
	quick := flag.Bool("quick", false, "smoke run: 5 s per workload on one cluster, probes x0.1")
	repeat := flag.Int("repeat", 1, "passes over the workloads, seeds seed, seed+1, ...")
	out := flag.String("out", "", "write the results of a run over every workload to this JSON file")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	repro := flag.String("repro", "", "reproduce a known engine issue: lbp-overflow or dbp-evict-dirty")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		killLive()
		os.Exit(130)
	}()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare A.json B.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *repro != "":
		os.Exit(runRepro(*repro))
	}

	cfg := runConfig{ph: splitSeconds(*seconds), clusters: maxClusters, traced: *traced || *trace == 1, probeScale: 1}
	if *quick {
		cfg.ph, cfg.clusters, cfg.probeScale = splitSeconds(5), 1, 0.1
	}
	if cfg.traced {
		cfg.clusters = 1
	}
	var err error
	if cfg.binDir, err = buildDaemons(); err != nil {
		fatal(1, "%v", err)
	}

	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(2, "unknown workload %q", *workload)
		}
		cfg.seed = *seed
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(1, "%v", err)
		}
		res.print(os.Stdout)
		fmt.Println(res.contractLine())
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	rf := &resultFile{Seconds: *seconds, Traced: cfg.traced}
	ok := true
	for pass := 0; pass < *repeat; pass++ {
		cfg.seed = *seed + int64(pass)
		rp := resultPass{Seed: cfg.seed, Workloads: map[string]*runResult{}}
		for i := range workloads {
			res, err := runWorkload(&workloads[i], cfg)
			if err != nil {
				fatal(1, "%v", err)
			}
			res.print(os.Stdout)
			rp.Workloads[res.Workload] = res
			ok = ok && res.Correct
		}
		rf.Passes = append(rf.Passes, rp)
	}
	if *out != "" {
		if err := writeResultFile(*out, rf); err != nil {
			fatal(1, "%v", err)
		}
	}
	if !ok {
		fatal(1, "a correctness check failed")
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	killLive()
	os.Exit(code)
}
