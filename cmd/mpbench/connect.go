package main

import (
	"fmt"
	"os"
	"time"

	"polardbmp/internal/wire"
	"polardbmp/internal/workload"
)

// runConnect drives the bank workload against a session-protocol endpoint
// (an mpserver or an mpgateway fronting several) and verifies the
// money-conservation invariant: concurrent random transfers between N
// accounts must never change the total balance, observed both by periodic
// snapshot-isolation sums while transfers are in flight and by a final sum
// after the last commit. Returns a non-zero exit code on any violation — a
// worker that never got its session included — so the proto-smoke harness
// can gate on it.
func runConnect(addr string, dur time.Duration, threads int) int {
	if dur <= 0 {
		dur = 3 * time.Second
	}
	if threads <= 0 {
		threads = 4
	}
	bank := &workload.Bank{Accounts: 64, Seed: 100}
	want := bank.Accounts * bank.Seed

	setup, err := wire.DialSession(addr, wire.SessionConfig{Name: "mpbench-setup"})
	if err != nil {
		fmt.Fprintf(os.Stderr, "connect %s: %v\n", addr, err)
		return 1
	}
	defer setup.Close()
	fmt.Printf("connected to %s (%s), %d threads for %v\n", addr, setup.ServerName(), threads, dur)
	if err := bank.Load(workload.Remote{setup}); err != nil {
		fmt.Fprintf(os.Stderr, "loading the bank: %v\n", err)
		return 1
	}

	// Transfer workers: each its own client, so a gateway spreads them
	// across backends and the workload is genuinely multi-primary.
	run := bank.Start(threads, 1, false, func(w int) (wire.Backend, error) {
		cl, err := wire.DialSession(addr, wire.SessionConfig{Name: fmt.Sprintf("mpbench-%d", w)})
		return wire.ClientBackend{Client: cl}, err
	})

	checks, violations := 0, 0
	sum := func(when string) error {
		got, _, err := bank.Sum(wire.ClientBackend{Client: setup})
		if err != nil {
			return err
		}
		checks++
		if got != want {
			violations++
			fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION: %s balance sum %d, want %d\n", when, got, want)
		}
		return nil
	}
	for end := time.Now().Add(dur); time.Now().Before(end); time.Sleep(200 * time.Millisecond) {
		_ = sum("mid-run") // transient (e.g. backend restart); the final check decides
	}
	run.Stop()
	if err := sum("final"); err != nil {
		fmt.Fprintf(os.Stderr, "final sum: %v\n", err)
		return 1
	}

	c := run.Commits()
	fmt.Printf("commits=%d aborts=%d sum-checks=%d violations=%d (%.0f tx/s)\n",
		c, len(run.Failed), checks, violations, float64(c)/dur.Seconds())
	for _, err := range run.Unconnected {
		fmt.Fprintf(os.Stderr, "never connected: %v\n", err)
	}
	switch {
	case violations > 0 || len(run.Unconnected) > 0:
		return 1
	case c == 0:
		fmt.Fprintln(os.Stderr, "no transaction ever committed")
		return 1
	}
	return 0
}
