// Command mpshell is a small interactive shell over a PolarDB-MP cluster:
// open (optionally persistent) storage or connect to a live daemon, run reads
// and writes against any primary, inspect topology and statistics, drain
// nodes, and — in-process — crash and recover them.
//
//	$ go run ./cmd/mpshell -nodes 2 -data /tmp/mpdata
//	$ go run ./cmd/mpshell -connect host:7090   # against a live mpserver/mpgateway
//	mp> use orders
//	mp> put k1 hello
//	mp> on 2 get k1
//	hello
//	mp> crash 1
//	mp> restart 1
//	mp> stats
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"polardbmp"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/wire"
)

func main() {
	nodes := flag.Int("nodes", 2, "primary nodes")
	data := flag.String("data", "", "data directory (empty = in-memory)")
	traced := flag.Bool("trace", false, "enable the commit-path span tracer")
	slowTx := flag.Duration("slowtx", 0, "log transactions slower than this (implies -trace)")
	connect := flag.String("connect", "", "session address of a live mpserver/mpgateway; run as a network client instead of opening an in-process cluster")
	flag.Parse()

	sh := &shell{node: 1}
	if *connect != "" {
		cl, err := wire.DialSession(*connect, wire.SessionConfig{Name: "mpshell"})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cl.Close()
		sh.remote = cl
		fmt.Printf("polardbmp shell — connected to %s (%s)", *connect, cl.ServerName())
	} else {
		var extra []polardbmp.Option
		if *traced {
			extra = append(extra, polardbmp.WithTracer())
		}
		if *slowTx > 0 {
			extra = append(extra, polardbmp.WithSlowTxThreshold(*slowTx))
		}
		db, err := polardbmp.Open(polardbmp.Options{Nodes: *nodes, DataDir: *data}, extra...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer db.Close()
		sh.db = db
		fmt.Printf("polardbmp shell — %d primaries", *nodes)
		if *data != "" {
			fmt.Printf(", data dir %s", *data)
		}
	}
	fmt.Println("\ntype 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	for {
		if sh.db != nil {
			fmt.Printf("mp:%d> ", sh.node)
		} else {
			fmt.Print("mp> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// shell runs every data and admin command against a wire.Backend: the
// session client under -connect, or the in-process backend of the selected
// node. Exactly one of db and remote is set.
type shell struct {
	db     *polardbmp.Cluster
	remote *wire.Client
	node   int // in-process: the primary commands run on

	space uint32
	named bool
}

// backend resolves the node per command, so crash, restart and `on N` take
// effect on the next one.
func (s *shell) backend() (wire.Backend, error) {
	if s.remote != nil {
		return wire.ClientBackend{Client: s.remote}, nil
	}
	c := s.db.Internal()
	n := c.Node(s.node)
	if n == nil {
		return nil, fmt.Errorf("node %d: %w", s.node, polardbmp.ErrNodeDown)
	}
	return netsrv.New(c, n), nil
}

func nodeArg(cmd string, args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("usage: %s <node>", cmd)
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n <= 0 || n > 1<<16-1 {
		return 0, fmt.Errorf("bad node id %q", args[0])
	}
	return n, nil
}

func printJSON(raw []byte) error {
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		return err
	}
	fmt.Println(pretty.String())
	return nil
}

func (s *shell) exec(line string) error {
	fields := strings.Fields(line)
	// Accept the \command spelling (`\topology`, `\drain 2`) alongside the
	// bare words.
	cmd, args := strings.TrimPrefix(fields[0], `\`), fields[1:]

	switch cmd {
	case "help":
		fmt.Print(`commands:
  use <table>              create/open a table (required before data ops)
  put <key> <value>        upsert a row
  get <key>                read a row
  del <key>                delete a row
  scan [prefix] [limit]    list rows
  stats                    engine counters (+ per-stage trace breakdown when traced)
  stats json               full ClusterStats snapshot as JSON
  topology [json]          cluster membership snapshot (also: \topology)
  drain <node>             gracefully drain a node (also: \drain <node>)
  exit
in-process only:
  on <node> <cmd...>       run one command on another primary
  node <n>                 switch the current primary
  addnode                  scale out by one primary
  crash <n> | restart <n>  fail-stop / recover a node
  checkpoint               flush buffers + truncate logs (quiesced)
with -connect only:
  ping                     round-trip a no-op request
`)
		return nil
	case "ping":
		if s.remote == nil {
			return errors.New("ping needs -connect")
		}
		return s.remote.Ping()
	case "on", "node", "addnode", "crash", "restart", "checkpoint":
		// Injecting failures is the server operator's control, not a network
		// client's; elastic topology changes are what the admin ops are for.
		if s.db == nil {
			return fmt.Errorf("%s is in-process only", cmd)
		}
		return s.local(cmd, args)
	}

	be, err := s.backend()
	if err != nil {
		return err
	}
	switch cmd {
	case "use":
		if len(args) != 1 {
			return errors.New("usage: use <table>")
		}
		sp, err := be.CreateSpace(args[0])
		if err != nil {
			return err
		}
		s.space, s.named = sp, true
		fmt.Println("using table", args[0])
		return nil
	case "stats":
		raw, err := be.StatsJSON()
		if err != nil {
			return err
		}
		if len(args) == 1 && args[0] == "json" {
			return printJSON(raw)
		}
		return printStats(raw)
	case "topology":
		raw, err := be.TopologyJSON()
		if err != nil {
			return err
		}
		if len(args) == 1 && args[0] == "json" {
			return printJSON(raw)
		}
		var top polardbmp.Topology
		if err := json.Unmarshal(raw, &top); err != nil {
			return err
		}
		fmt.Printf("epoch %d, %d nodes\n", top.Epoch, len(top.Nodes))
		fmt.Printf("%-6s %-10s %12s %10s %s\n", "node", "state", "incarnation", "sessions", "")
		for _, n := range top.Nodes {
			hosted := ""
			if n.Hosted {
				hosted = "hosted here"
			}
			fmt.Printf("%-6d %-10s %12d %10d %s\n", n.ID, n.State, n.Incarnation, n.Sessions, hosted)
		}
		return nil
	case "drain":
		n, err := nodeArg(cmd, args)
		if err != nil {
			return err
		}
		if err := be.Drain(uint16(n)); err != nil {
			return err
		}
		fmt.Printf("node %d drained\n", n)
		return nil
	case "put", "get", "del", "scan":
		return s.dataOp(be, cmd, args)
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

// local runs the commands that reach into the in-process cluster.
func (s *shell) local(cmd string, args []string) error {
	switch cmd {
	case "on": // "on N <cmd...>" runs one command against primary N
		if len(args) < 2 {
			return errors.New("usage: on <node> <command...>")
		}
		n, err := nodeArg(cmd, args[:1])
		if err != nil {
			return err
		}
		saved := s.node
		s.node = n
		defer func() { s.node = saved }()
		return s.exec(strings.Join(args[1:], " "))
	case "addnode":
		n, err := s.db.AddNode()
		if err != nil {
			return err
		}
		fmt.Println("added node", n.ID())
		return nil
	case "checkpoint":
		if err := s.db.Checkpoint(); err != nil {
			return err
		}
		fmt.Println("checkpointed")
		return nil
	}
	n, err := nodeArg(cmd, args)
	if err != nil {
		return err
	}
	switch cmd {
	case "node":
		s.node = n
	case "crash":
		if err := s.db.CrashNode(n); err != nil {
			return err
		}
		fmt.Println("crashed node", n)
	case "restart":
		if _, err := s.db.RestartNode(n); err != nil {
			return err
		}
		fmt.Println("node", n, "recovered")
	}
	return nil
}

// printStats renders the stats document both modes serve. Stages are
// decoded by name, so one a newer server adds still shows up.
func printStats(raw []byte) error {
	var st polardbmp.ClusterStats
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	fmt.Printf("commits=%d aborts=%d deadlocks=%d\n", st.Commits, st.Aborts, st.Deadlocks)
	fmt.Printf("fabric: reads=%d writes=%d atomics=%d rpcs=%d\n",
		st.Fabric.Reads, st.Fabric.Writes, st.Fabric.Atomics, st.Fabric.RPCs)
	fmt.Printf("storage: page-reads=%d log-syncs=%d | DBP pages=%d\n",
		st.Storage.PageReads, st.Storage.LogSyncs, st.DBPResident)
	fmt.Printf("locks: plock-negotiations=%d rlock-waits=%d rlock-deadlocks=%d\n",
		st.Locks.PLockNegotiations, st.Locks.RLockWaits, st.Locks.RLockDeadlocks)
	if st.Net != nil {
		fmt.Printf("net: conns=%d frames in=%d out=%d\n", st.Net.ConnsOpen, st.Net.FramesIn, st.Net.FramesOut)
	}
	if len(st.Stages) > 0 {
		fmt.Printf("%-14s %10s %12s %12s %12s %8s\n",
			"stage", "count", "mean", "p95", "p99", "rpcs")
		for _, sg := range st.Stages {
			fmt.Printf("%-14s %10d %12v %12v %12v %8d\n",
				sg.Stage, sg.Count, sg.Mean.Round(time.Nanosecond),
				sg.P95.Round(time.Nanosecond), sg.P99.Round(time.Nanosecond), sg.Ops.RPCs)
		}
	}
	if len(st.SlowTxs) > 0 {
		fmt.Printf("slow txs (%d):\n", len(st.SlowTxs))
		for _, tx := range st.SlowTxs {
			fmt.Printf("  %s node=%d total=%v spans=%d\n", tx.GTrx, tx.Node, tx.TotalNS, len(tx.Spans))
		}
	}
	return nil
}

func (s *shell) dataOp(be wire.Backend, cmd string, args []string) error {
	if !s.named {
		return errors.New("no table selected: use <table>")
	}
	tx, err := be.Begin(0, 0)
	if err != nil {
		return err
	}
	fail := func(err error) error { _ = tx.Rollback(); return err }
	switch cmd {
	case "put":
		if len(args) < 2 {
			return fail(errors.New("usage: put <key> <value>"))
		}
		if err := tx.Upsert(s.space, []byte(args[0]), []byte(strings.Join(args[1:], " "))); err != nil {
			return fail(err)
		}
	case "get":
		if len(args) != 1 {
			return fail(errors.New("usage: get <key>"))
		}
		v, err := tx.Get(s.space, []byte(args[0]))
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(v))
	case "del":
		if len(args) != 1 {
			return fail(errors.New("usage: del <key>"))
		}
		if err := tx.Delete(s.space, []byte(args[0])); err != nil {
			return fail(err)
		}
	case "scan":
		var from, to []byte
		limit := 50
		if len(args) >= 1 {
			from = []byte(args[0])
			to = append([]byte(args[0]), 0xFF)
		}
		if len(args) >= 2 {
			if n, err := strconv.Atoi(args[1]); err == nil {
				limit = n
			}
		}
		kvs, err := tx.Scan(s.space, from, to, limit)
		if err != nil {
			return fail(err)
		}
		for _, kv := range kvs {
			fmt.Printf("%s = %s\n", kv.Key, kv.Value)
		}
		fmt.Printf("(%d rows)\n", len(kvs))
	}
	return tx.Commit()
}
