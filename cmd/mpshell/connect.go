package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"polardbmp/internal/wire"
)

// runRemote is the -connect shell: the same data commands as the in-process
// shell, executed over the wire session protocol against a live mpserver or
// mpgateway, plus the admin surface — topology to see the cluster and
// drain to take a node out gracefully. Crash orchestration
// (crash/restart/checkpoint) stays a deliberate non-feature here: injecting
// failures is the server operator's control, not a network client's; elastic
// topology changes are exactly what the admin ops exist for.
func runRemote(addr string) int {
	cl, err := wire.DialSession(addr, wire.SessionConfig{Name: "mpshell"})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer cl.Close()
	fmt.Printf("polardbmp shell — connected to %s (%s)\ntype 'help' for commands\n", addr, cl.ServerName())
	sh := &remoteShell{cl: cl}
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("mp> ")
		if !sc.Scan() {
			return 0
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			return 0
		}
		if err := sh.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

type remoteShell struct {
	cl    *wire.Client
	space uint32
	named bool
}

func (s *remoteShell) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	// Accept the \command spelling for the admin ops (`\topology`, `\drain 2`)
	// alongside the bare words the rest of the shell uses.
	cmd = strings.TrimPrefix(cmd, `\`)
	switch cmd {
	case "help":
		fmt.Printf(`commands (remote session):
  use <table>              create/open a table (required before data ops)
  put <key> <value>        upsert a row
  get <key>                read a row
  del <key>                delete a row
  scan [prefix] [limit]    list rows
  ping                     round-trip a no-op request
  stats                    server ClusterStats snapshot (summary)
  stats json               full snapshot as JSON
  topology                 cluster membership snapshot (also: \topology)
  topology json            raw topology JSON
  drain <node>             gracefully drain a node (also: \drain <node>)
  exit
`)
		return nil
	case "use":
		if len(args) != 1 {
			return errors.New("usage: use <table>")
		}
		sp, err := s.cl.CreateSpace(args[0])
		if err != nil {
			return err
		}
		s.space, s.named = sp, true
		fmt.Println("using table", args[0])
		return nil
	case "ping":
		return s.cl.Ping()
	case "stats":
		raw, err := s.cl.StatsJSON()
		if err != nil {
			return err
		}
		if len(args) == 1 && args[0] == "json" {
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, raw, "", "  "); err != nil {
				return err
			}
			fmt.Println(pretty.String())
			return nil
		}
		var st struct {
			Commits uint64 `json:"commits"`
			Aborts  uint64 `json:"aborts"`
			Net     *struct {
				ConnsOpen uint64 `json:"conns_open"`
				FramesIn  uint64 `json:"frames_in"`
				FramesOut uint64 `json:"frames_out"`
			} `json:"net"`
			// Decoded by name, not by a fixed taxonomy: any stage the server
			// reports with a nonzero count renders, so stages added after
			// this shell was built still show up.
			Stages []struct {
				Stage string `json:"stage"`
				Count int64  `json:"count"`
				Mean  int64  `json:"mean_ns"`
				P95   int64  `json:"p95_ns"`
				P99   int64  `json:"p99_ns"`
				Ops   struct {
					RPCs int64 `json:"rpcs"`
				} `json:"ops"`
			} `json:"stages"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
		fmt.Printf("commits=%d aborts=%d\n", st.Commits, st.Aborts)
		if st.Net != nil {
			fmt.Printf("net: conns=%d frames in=%d out=%d\n", st.Net.ConnsOpen, st.Net.FramesIn, st.Net.FramesOut)
		}
		header := false
		for _, sg := range st.Stages {
			if sg.Count == 0 {
				continue
			}
			if !header {
				fmt.Printf("%-14s %10s %12s %12s %12s %8s\n",
					"stage", "count", "mean", "p95", "p99", "rpcs")
				header = true
			}
			fmt.Printf("%-14s %10d %12v %12v %12v %8d\n",
				sg.Stage, sg.Count,
				time.Duration(sg.Mean).Round(time.Nanosecond),
				time.Duration(sg.P95).Round(time.Nanosecond),
				time.Duration(sg.P99).Round(time.Nanosecond),
				sg.Ops.RPCs)
		}
		return nil
	case "topology":
		raw, err := s.cl.TopologyJSON()
		if err != nil {
			return err
		}
		if len(args) == 1 && args[0] == "json" {
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, raw, "", "  "); err != nil {
				return err
			}
			fmt.Println(pretty.String())
			return nil
		}
		var top struct {
			Epoch uint64 `json:"epoch"`
			Nodes []struct {
				ID          int    `json:"id"`
				State       string `json:"state"`
				Incarnation uint64 `json:"incarnation"`
				Sessions    int64  `json:"sessions"`
				Hosted      bool   `json:"hosted"`
			} `json:"nodes"`
		}
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
		if len(args) != 1 {
			return errors.New("usage: drain <node>")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 || n > 1<<16-1 {
			return fmt.Errorf("bad node id %q", args[0])
		}
		if err := s.cl.Drain(uint16(n)); err != nil {
			return err
		}
		fmt.Printf("node %d drained\n", n)
		return nil
	case "put", "get", "del", "scan":
		return s.dataOp(cmd, args)
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

func (s *remoteShell) dataOp(cmd string, args []string) error {
	if !s.named {
		return errors.New("no table selected: use <table>")
	}
	tx, err := s.cl.Begin(0, 0)
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
