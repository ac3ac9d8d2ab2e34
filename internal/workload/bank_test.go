package workload_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/wire"
	"polardbmp/internal/workload"
)

// One row per verdict; each asserts the violation text mpchaos -proc prints,
// so a failing crash-smoke log reads the same whoever produced it.
func TestBankAudit(t *testing.T) {
	bank := &workload.Bank{Accounts: 3, Seed: 100}
	for _, tc := range []struct {
		name                    string
		balances                map[int]int
		markers                 map[string]string
		mustPresent, mustAbsent []string
		want                    []string
	}{{
		name:        "clean history",
		balances:    map[int]int{0: 93, 1: 107, 2: 100},
		markers:     map[string]string{"mark:0:0": "0:1:7"},
		mustPresent: []string{"mark:0:0"},
		mustAbsent:  []string{"mark:0:1"},
	}, {
		name:        "acked marker absent (lost commit)",
		balances:    map[int]int{0: 100, 1: 100, 2: 100},
		mustPresent: []string{"mark:0:0"},
		want:        []string{"committed transaction lost: marker mark:0:0 absent"},
	}, {
		name:       "rolled-back marker present (published rollback)",
		balances:   map[int]int{0: 93, 1: 107, 2: 100},
		markers:    map[string]string{"mark:0:0": "0:1:7"},
		mustAbsent: []string{"mark:0:0"},
		want:       []string{"rolled-back transaction published: marker mark:0:0 present (value 0:1:7)"},
	}, {
		name:     "one leg visible without the other (non-zero-sum drift)",
		balances: map[int]int{0: 93, 1: 100, 2: 100},
		want: []string{
			"final sum 293, want 300",
			"account 000 holds 93 but the 0 present markers replay to 100 (drift -7)",
		},
	}, {
		name:     "whole transaction leaked (pairwise-cancelling drift)",
		balances: map[int]int{0: 93, 1: 107, 2: 100},
		want: []string{
			"account 000 holds 93 but the 0 present markers replay to 100 (drift -7)",
			"account 001 holds 107 but the 0 present markers replay to 100 (drift +7)",
		},
	}, {
		name:     "malformed marker value",
		balances: map[int]int{0: 100, 1: 100, 2: 100},
		markers:  map[string]string{"mark:0:0": "0>1"},
		want:     []string{`marker mark:0:0 carries malformed transfer "0>1"`},
	}, {
		name:     "account missing from the snapshot",
		balances: map[int]int{0: 100, 1: 100},
		want: []string{
			"final sum 200, want 300",
			"account 002 missing from the final snapshot",
		},
	}, {
		name:        "more than five lost",
		balances:    map[int]int{0: 100, 1: 100, 2: 100},
		mustPresent: []string{"a", "b", "c", "d", "e", "f", "g"},
		want: []string{
			"committed transaction lost: marker a absent",
			"committed transaction lost: marker b absent",
			"committed transaction lost: marker c absent",
			"committed transaction lost: marker d absent",
			"committed transaction lost: marker e absent",
			"…and 2 more lost / 0 more leaked markers",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got := bank.Audit(tc.balances, tc.markers, tc.mustPresent, tc.mustAbsent)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("violations:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// surface is one way to reach a cluster's primaries: as the generators see
// it (db), and as a client that opens its own session sees node i (connect).
type surface struct {
	db      workload.DB
	connect func(node int) (wire.Backend, error)
}

func inProcess(_ *testing.T, db *netsrv.DB) surface {
	return surface{db: db, connect: func(node int) (wire.Backend, error) {
		return netsrv.New(db.Cluster, db.Cluster.Node(node+1)), nil
	}}
}

// loopback puts every node of db behind its own session server.
func loopback(t *testing.T, db *netsrv.DB) surface {
	var addrs []string
	var remote workload.Remote
	for i, n := range db.Cluster.Nodes() {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.ServeSessions(lis, fmt.Sprintf("node%d", i+1), netsrv.New(db.Cluster, n), &wire.NetCounters{})
		t.Cleanup(srv.Close)
		cl, err := wire.DialSession(srv.Addr().String(), wire.SessionConfig{Name: "generators"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		addrs = append(addrs, srv.Addr().String())
		remote = append(remote, cl)
	}
	return surface{db: remote, connect: func(node int) (wire.Backend, error) {
		cl, err := wire.DialSession(addrs[node], wire.SessionConfig{Name: "worker"})
		return wire.ClientBackend{Client: cl}, err
	}}
}

// The same seeded bank and the same sysbench run, in-process and over the
// wire: the generators, the transfer, the snapshot reader and the audit are
// handed each surface's transactions as they are. A per-side transaction
// type, or an adapter between them, does not compile here.
func TestOneSurface(t *testing.T) {
	for name, open := range map[string]func(*testing.T, *netsrv.DB) surface{
		"in-process": inProcess, "loopback": loopback,
	} {
		t.Run(name, func(t *testing.T) {
			cluster := newDB(t, 2)
			s := open(t, cluster)
			if s.db.NodeCount() != 2 {
				t.Fatalf("nodes = %d", s.db.NodeCount())
			}

			bank := &workload.Bank{Accounts: 16, Seed: 100}
			if err := bank.Load(s.db); err != nil {
				t.Fatal(err)
			}
			sb := workload.DefaultSysbench(workload.SysbenchReadWrite, 2, 30)
			sb.TablesPerGroup, sb.RowsPerTable = 1, 100
			if err := sb.Load(s.db); err != nil {
				t.Fatal(err)
			}

			run := bank.Start(4, 7, true, func(w int) (wire.Backend, error) { return s.connect(w % 2) })
			sysbench := make(chan workload.Result, 1)
			go func() {
				sysbench <- workload.Runner{Threads: 2, Duration: 300 * time.Millisecond}.Run(s.db, sb.TxFunc)
			}()

			// The snapshot reader: a sum every 5 ms (mpbench -connect, faster)
			// until sysbench is done and at least 20 were taken. A sum
			// that is off must be off again in the next snapshot to count:
			// money actually lost stays lost, whereas the engine's open
			// snapshot-visibility race (ROADMAP 0(b): a view taken between a
			// committer's timestamp grant and its publish sees one leg of
			// the transfer, or misses a row) is gone a moment later — it is
			// logged here, and is not what this test is about.
			reader, err := s.connect(1)
			if err != nil {
				t.Fatal(err)
			}
			var res workload.Result
			want, sums, suspect := bank.Accounts*bank.Seed, 0, false
			for done := false; !done || sums < 20; sums++ {
				got, detail, err := bank.Sum(reader)
				switch {
				case err == nil && got == want:
					suspect = false
				case suspect:
					t.Fatalf("two snapshot sums in a row off: %d (%v), want %d: %s", got, err, want, detail)
				default:
					t.Logf("transient snapshot anomaly: sum %d (%v), want %d", got, err, want)
					suspect = true
				}
				select {
				case res = <-sysbench:
					done = true
				case <-time.After(5 * time.Millisecond):
				}
			}
			run.Stop()

			if res.Commits == 0 || res.Errors != 0 {
				t.Fatalf("sysbench commits=%d errors=%d", res.Commits, res.Errors)
			}
			if run.Commits() == 0 || len(run.Unconnected) != 0 || len(run.Ambiguous) != 0 {
				t.Fatalf("bank commits=%d unconnected=%v ambiguous=%d", run.Commits(), run.Unconnected, len(run.Ambiguous))
			}
			if run.Attempts != len(run.Acked)+len(run.Failed) {
				t.Fatalf("ledger: %d attempts, %d acked, %d failed", run.Attempts, len(run.Acked), len(run.Failed))
			}
			balances, markers, err := bank.FinalState(reader)
			if err != nil {
				t.Fatal(err)
			}
			if v := bank.Audit(balances, markers, run.Acked, run.Failed); v != nil {
				t.Fatalf("audit: %q", v)
			}

			// Statement semantics across primaries are the engine's on both
			// surfaces: rows written through one are read, locked, scanned
			// and deleted through the other, with the typed errors intact.
			tab, err := s.db.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			tx, err := s.db.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert(tab, []byte("a"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert(tab, []byte("b"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx2, err := s.db.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := tx2.Get(tab, []byte("a")); err != nil || string(v) != "1" {
				t.Fatalf("get = %q, %v", v, err)
			}
			if v, err := tx2.GetForUpdate(tab, []byte("b")); err != nil || string(v) != "2" {
				t.Fatalf("get for update = %q, %v", v, err)
			}
			if err := tx2.Update(tab, []byte("b"), []byte("22")); err != nil {
				t.Fatal(err)
			}
			if kvs, err := tx2.Scan(tab, nil, nil, 0); err != nil || len(kvs) != 2 {
				t.Fatalf("scan = %d rows, %v", len(kvs), err)
			}
			if err := tx2.Delete(tab, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			tx3, err := s.db.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx3.Get(tab, []byte("a")); !errors.Is(err, common.ErrNotFound) {
				t.Fatalf("deleted row get err = %v", err)
			}
			_ = tx3.Rollback()

			if _, err := s.db.Begin(7); err == nil {
				t.Fatal("begin on a missing node should fail")
			}
			if err := cluster.Cluster.CrashNode(2); err != nil {
				t.Fatal(err)
			}
			if _, err := s.db.Begin(1); !errors.Is(err, common.ErrNodeDown) {
				t.Fatalf("begin on a crashed node err = %v", err)
			}
		})
	}
}

// A worker whose session never opens must surface in the ledger: the run
// carried fewer clients than it was asked for.
func TestBankRunReportsUnconnectedWorker(t *testing.T) {
	s := inProcess(t, newDB(t, 1))
	bank := &workload.Bank{Accounts: 8, Seed: 100}
	if err := bank.Load(s.db); err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	run := bank.Start(3, 1, false, func(w int) (wire.Backend, error) {
		if dials.Add(1) == 2 {
			return nil, fmt.Errorf("dial refused: %w", common.ErrUnreachable)
		}
		return s.connect(0)
	})
	for run.Commits() == 0 {
		time.Sleep(time.Millisecond)
	}
	run.Stop()
	if len(run.Unconnected) != 1 || !errors.Is(run.Unconnected[0], common.ErrUnreachable) {
		t.Fatalf("unconnected = %v, want the one refused dial", run.Unconnected)
	}
}
