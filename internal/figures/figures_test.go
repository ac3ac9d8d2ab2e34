package figures

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/workload"
)

// tinyOpts shrinks every knob so each figure runs in a couple of seconds;
// these tests guard the harness code paths, not the numbers.
func tinyOpts() Options {
	return Options{
		Out:      io.Discard,
		Quick:    true,
		Scale:    25,
		Duration: 250 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Threads:  1,
		Nodes:    []int{1, 2},
	}
}

func TestFig7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	points := Fig7(tinyOpts())
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		if p.TPS <= 0 {
			t.Fatalf("zero throughput at %+v", p)
		}
	}
}

func TestFig8And13Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	if pts := Fig8(tinyOpts()); len(pts) != 2 {
		t.Fatalf("fig8 points = %d", len(pts))
	}
	pts := Fig13(tinyOpts())
	if len(pts) == 0 {
		t.Fatal("fig13 empty")
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.System] = true
	}
	if !seen["polardb-mp"] || !seen["shared-nothing"] {
		t.Fatalf("fig13 systems = %v", seen)
	}
}

func TestFig11And12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	o := tinyOpts()
	o.Nodes = []int{1}
	pts := Fig11(o)
	o.Nodes = []int{1, 5} // 5 exceeds Aurora-MM's 4-node limit
	pts = append(pts, Fig12(o)...)
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.System] = true
		if p.TPS <= 0 {
			t.Fatalf("zero throughput at %+v", p)
		}
		if p.System == "occ(aurora)" && p.Nodes > 4 {
			t.Fatalf("aurora point past its 4-node limit: %+v", p)
		}
	}
	for _, sys := range []string{"polardb-mp", "log-ship(taurus)", "occ(aurora)"} {
		if !seen[sys] {
			t.Fatalf("series %q missing; have %v", sys, seen)
		}
	}
}

// TestAuroraConflictAborts: two nodes update one row; the first committer
// wins and the second gets the retryable write conflict Aurora-MM reports
// (§2.3). Under 2PL the second Update would block on the row instead.
func TestAuroraConflictAborts(t *testing.T) {
	db, err := tinyOpts().newAurora(2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Cluster.Close()
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	seed, _ := db.Begin(0)
	if err := seed.Insert(tab, key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, _ := db.Begin(0)
	t2, _ := db.Begin(1)
	if err := t1.Update(tab, key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(tab, key, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err = t2.Commit()
	if !errors.Is(err, common.ErrWriteConflict) || !common.IsRetryable(err) {
		t.Fatalf("second committer err = %v, want retryable ErrWriteConflict", err)
	}
	rd, _ := db.Begin(1)
	if v, err := rd.Get(tab, key); err != nil || string(v) != "a" {
		t.Fatalf("get = %q, %v; want the first committer's value", v, err)
	}
	rd.Rollback()
}

// TestAuroraUnderWorkloadRunner: a fully shared write-only sysbench on a
// 50-row table must commit and must surface OCC aborts to the runner.
func TestAuroraUnderWorkloadRunner(t *testing.T) {
	db, err := tinyOpts().newAurora(2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Cluster.Close()
	sb := workload.DefaultSysbench(workload.SysbenchWriteOnly, 2, 100)
	sb.TablesPerGroup = 1
	sb.RowsPerTable = 50
	if err := sb.Load(db); err != nil {
		t.Fatal(err)
	}
	r := workload.Runner{Threads: 2, Duration: 100 * time.Millisecond, MaxRetries: 5,
		OnError: func(err error) { t.Errorf("non-retryable error: %v", err) }}
	var total workload.Result
	for deadline := time.Now().Add(5 * time.Second); total.Aborts == 0 && time.Now().Before(deadline); {
		res := r.Run(db, sb.TxFunc)
		total.Commits += res.Commits
		total.Aborts += res.Aborts
	}
	if total.Commits == 0 {
		t.Fatal("no commits")
	}
	if total.Aborts == 0 {
		t.Fatal("fully shared write-only workload produced no OCC aborts in 5s")
	}
}

func TestFig15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	o := tinyOpts()
	n1, n2, recovery := Fig15(o)
	if len(n1) == 0 || len(n2) == 0 {
		t.Fatal("empty timelines")
	}
	if recovery <= 0 || recovery > 30*time.Second {
		t.Fatalf("recovery = %v", recovery)
	}
}

func TestMicroSmoke(t *testing.T) {
	tso, tit := Micro(tinyOpts())
	// In-process one-sided verbs must stay well under the several-µs
	// budget §4.1 cites for real RDMA.
	if tso <= 0 || tso > 100*time.Microsecond {
		t.Fatalf("tso fetch = %v", tso)
	}
	if tit <= 0 || tit > 100*time.Microsecond {
		t.Fatalf("tit read = %v", tit)
	}
}

func TestHeaderMentionsScale(t *testing.T) {
	var sb strings.Builder
	o := tinyOpts()
	o.Out = &sb
	o.fill()
	o.header("x")
	if !strings.Contains(sb.String(), "scale=25x") {
		t.Fatalf("header missing scale: %q", sb.String())
	}
}

func TestNormalize(t *testing.T) {
	pts := []SweepPoint{
		{System: "a", Kind: "k", Nodes: 1, TPS: 100},
		{System: "a", Kind: "k", Nodes: 4, TPS: 350},
		{System: "b", Kind: "k", Nodes: 1, TPS: 200},
		{System: "b", Kind: "k", Nodes: 4, TPS: 300},
	}
	normalize(pts)
	if pts[1].Scaling != 3.5 || pts[3].Scaling != 1.5 {
		t.Fatalf("scalings = %v %v", pts[1].Scaling, pts[3].Scaling)
	}
}
