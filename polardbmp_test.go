package polardbmp_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"polardbmp"
)

func open(t testing.TB, nodes int) *polardbmp.Cluster {
	t.Helper()
	db, err := polardbmp.Open(polardbmp.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	db := open(t, 2)
	accounts, err := db.CreateTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Node(1).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(accounts, []byte("alice"), []byte("100")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Node(2).Begin()
	if err != nil {
		t.Fatal(err)
	}
	v, err := tx2.Get(accounts, []byte("alice"))
	if err != nil || string(v) != "100" {
		t.Fatalf("cross-node read = %q, %v", v, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := open(t, 1)
	tab, _ := db.CreateTable("t")
	tx, _ := db.Node(1).Begin()
	if _, err := tx.Get(tab, []byte("missing")); !errors.Is(err, polardbmp.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	tx.Insert(tab, []byte("k"), []byte("v"))
	if err := tx.Insert(tab, []byte("k"), []byte("v2")); !errors.Is(err, polardbmp.ErrKeyExists) {
		t.Fatalf("dup err = %v", err)
	}
	tx.Rollback()
	if err := tx.Commit(); !errors.Is(err, polardbmp.ErrTxDone) {
		t.Fatalf("after rollback err = %v", err)
	}
}

func TestPublicAPIBankInvariant(t *testing.T) {
	db := open(t, 3)
	bank, _ := db.CreateTable("bank")
	const accounts = 20
	const initial = 100
	seed, _ := db.Node(1).Begin()
	for i := 0; i < accounts; i++ {
		if err := seed.Insert(bank, []byte(fmt.Sprintf("acct-%02d", i)), []byte(fmt.Sprintf("%d", initial))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	transfer := func(n *polardbmp.Node, from, to string) error {
		tx, err := n.Begin()
		if err != nil {
			return err
		}
		a, err := tx.GetForUpdate(bank, []byte(from))
		if err != nil {
			tx.Rollback()
			return err
		}
		b, err := tx.GetForUpdate(bank, []byte(to))
		if err != nil {
			tx.Rollback()
			return err
		}
		var av, bv int
		fmt.Sscanf(string(a), "%d", &av)
		fmt.Sscanf(string(b), "%d", &bv)
		if av < 1 {
			return tx.Rollback()
		}
		if err := tx.Update(bank, []byte(from), []byte(fmt.Sprintf("%d", av-1))); err != nil {
			tx.Rollback()
			return err
		}
		if err := tx.Update(bank, []byte(to), []byte(fmt.Sprintf("%d", bv+1))); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}

	var wg sync.WaitGroup
	for n := 1; n <= 3; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			node := db.Node(n)
			for i := 0; i < 50; i++ {
				from := fmt.Sprintf("acct-%02d", (n*7+i)%accounts)
				to := fmt.Sprintf("acct-%02d", (n*13+i*3)%accounts)
				if from == to {
					continue
				}
				for {
					err := transfer(node, from, to)
					if err == nil || !polardbmp.IsRetryable(err) {
						break
					}
				}
			}
		}(n)
	}
	wg.Wait()

	// Conservation of money across all nodes' views.
	tx, _ := db.Node(2).Begin()
	defer tx.Commit()
	total := 0
	rows, err := tx.Scan(bank, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != accounts {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, kv := range rows {
		var v int
		fmt.Sscanf(string(kv.Value), "%d", &v)
		total += v
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*initial)
	}
}

func TestPublicAPICrashRestart(t *testing.T) {
	db := open(t, 2)
	tab, _ := db.CreateTable("t")
	tx, _ := db.Node(1).Begin()
	tx.Insert(tab, []byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.CrashNode(1)
	if db.Node(1).Live() {
		t.Fatal("node 1 still live after crash")
	}
	if _, err := db.Node(1).Begin(); !errors.Is(err, polardbmp.ErrNodeDown) {
		t.Fatalf("begin on dead node err = %v", err)
	}
	if _, err := db.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Node(1).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tx2.Get(tab, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("post-restart read %q, %v", v, err)
	}
	tx2.Commit()
}

func TestPublicAPIAddNode(t *testing.T) {
	db := open(t, 1)
	tab, _ := db.CreateTable("t")
	tx, _ := db.Node(1).Begin()
	tx.Insert(tab, []byte("k"), []byte("v"))
	tx.Commit()

	n2, err := db.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if top, err := db.Topology(); err != nil || len(top.Nodes) != 2 {
		t.Fatalf("topology after AddNode = %+v, %v; want 2 nodes", top, err)
	}
	tx2, err := n2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tx2.Get(tab, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("new node read %q, %v", v, err)
	}
	tx2.Commit()
}

// The façade's elastic surface: Topology reports states, Drain refuses new
// work with the typed ErrDraining while in-flight transactions commit, a
// rejoin reuses the drained slot, and Remove frees it for good.
func TestPublicAPIElasticity(t *testing.T) {
	db := open(t, 3)
	tab, _ := db.CreateTable("t")
	tx, _ := db.Node(3).Begin()
	tx.Insert(tab, []byte("k3"), []byte("v3"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	top, err := db.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Nodes) != 3 {
		t.Fatalf("topology rows = %d, want 3", len(top.Nodes))
	}
	for _, ni := range top.Nodes {
		if ni.State != polardbmp.NodeActive {
			t.Fatalf("node %d state %q, want active", ni.ID, ni.State)
		}
	}

	// Hold a transaction open on the victim so the drain has in-flight work
	// to wait for; it must commit normally — never abort — while new Begins
	// are refused with the typed ErrDraining.
	held, err := db.Node(3).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := held.Upsert(tab, []byte("held"), []byte("survives")); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- db.Drain(3) }()
	deadline := 2000
	for {
		probe, err := db.Node(3).Begin()
		if errors.Is(err, polardbmp.ErrDraining) {
			break
		}
		if err != nil {
			t.Fatalf("begin on draining node: %v, want ErrDraining", err)
		}
		_ = probe.Rollback() // an admitted probe must not hold the drain open
		if deadline--; deadline == 0 {
			t.Fatal("drain never closed admission")
		}
		time.Sleep(time.Millisecond)
	}
	if err := held.Commit(); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	top, _ = db.Topology()
	var st polardbmp.NodeState
	for _, ni := range top.Nodes {
		if ni.ID == 3 {
			st = ni.State
		}
	}
	if st != polardbmp.NodeDrained {
		t.Fatalf("node 3 state %q after drain, want drained", st)
	}

	// The drained node's rows stay visible, and a rejoin reuses its slot.
	r, _ := db.Node(1).Begin()
	if v, err := r.Get(tab, []byte("held")); err != nil || string(v) != "survives" {
		t.Fatalf("post-drain read %q, %v", v, err)
	}
	r.Commit()
	n, err := db.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != 3 {
		t.Fatalf("rejoin got node %d, want the drained slot 3", n.ID())
	}
	if err := db.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(99); !errors.Is(err, polardbmp.ErrUnknownNode) {
		t.Fatalf("drain unknown node err = %v", err)
	}
}

func TestPublicAPISnapshot(t *testing.T) {
	db := open(t, 2)
	tab, _ := db.CreateTable("t")
	tx, _ := db.Node(1).Begin()
	tx.Insert(tab, []byte("k"), []byte("v0"))
	tx.Commit()

	snap, err := db.Node(2).BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Get(tab, []byte("k")); string(v) != "v0" {
		t.Fatalf("snap read %q", v)
	}
	w, _ := db.Node(1).Begin()
	w.Update(tab, []byte("k"), []byte("v1"))
	w.Commit()
	if v, _ := snap.Get(tab, []byte("k")); string(v) != "v0" {
		t.Fatalf("snapshot moved: %q", v)
	}
	snap.Commit()
}

func TestPersistentDataDir(t *testing.T) {
	dir := t.TempDir()
	db, err := polardbmp.Open(polardbmp.Options{Nodes: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tx, err := db.Node(1 + i%2).Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(tab, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// A new "process": reopen from the directory.
	db2, err := polardbmp.Open(polardbmp.Options{Nodes: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tab2, err := db2.CreateTable("t") // opens the existing table
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db2.Node(1).Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	rows, err := tx.Scan(tab2, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("rows after reopen = %d, want 50", len(rows))
	}
	for i := 0; i < 50; i++ {
		v, err := tx.Get(tab2, []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d = %q, %v", i, v, err)
		}
	}
}
