package main

// -repro: commands that show, in well under 30 s, the engine crashes the
// workloads had to be shaped around. They record known issues; they do not
// fix them. Each builds the lib_rw_cold cluster in memory with the one
// setting that differs and runs its rw transactions until the process dies.

import (
	"fmt"
	"os"
	"time"

	"polardbmp"
)

type reproSpec struct {
	expect     string
	dbpPages   int
	perNode    int // goroutines running transactions on each node
	activeNode int // 0 = every node, else only this one
}

var repros = map[string]reproSpec{
	// Two concurrent transactions on ONE node over a table larger than its
	// LBP. lib_rw_cold therefore runs one goroutine per node.
	"lbp-overflow": {
		expect:   "panic: bufferfusion: no free invalid-flag index despite eviction",
		dbpPages: libSharedBufferPages, perNode: 2, activeNode: 1,
	},
	// A DBP smaller than the table: evicting a page some node still holds
	// dirty. lib_rw_cold therefore keeps the whole table in the DBP.
	"dbp-evict-dirty": {
		expect:   "panic: bufferfusion: node N page P invalidated while dirty (PLock protocol violation)",
		dbpPages: 1024, perNode: 1,
	},
}

func runRepro(name string) int {
	spec, ok := repros[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -repro %q (want lbp-overflow or dbp-evict-dirty)\n", name)
		return 2
	}
	w := findWorkload("lib_rw_cold")
	where := "each node"
	if spec.activeNode != 0 {
		where = fmt.Sprintf("node %d only", spec.activeNode)
	}
	fmt.Printf("repro %s: %d rows, LBP %d pages, DBP %d pages, %d goroutine(s) on %s\nexpecting: %s\n",
		name, w.Rows, libLocalBufferPages, spec.dbpPages, spec.perNode, where, spec.expect)
	db, err := polardbmp.Open(polardbmp.Options{
		Nodes: sessions, LocalBufferPages: libLocalBufferPages, SharedBufferPages: spec.dbpPages,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer db.Close()
	tab, err := db.CreateTable(w.tableNames()[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	e := &env{w: w}
	for i := 1; i <= sessions; i++ {
		e.workers = append(e.workers, &libSession{node: db.Node(i), tables: []polardbmp.Table{tab}})
	}
	if err := w.loadTables(e.workers, 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println("loaded; running transactions")
	// perNode goroutines on each active node: worker slot i drives node i%2.
	var active []dbSession
	for g := 0; g < spec.perNode; g++ {
		for i, s := range e.workers {
			if spec.activeNode == 0 || spec.activeNode == i+1 {
				active = append(active, s)
			}
		}
	}
	e.workers = active
	res := closedLoop(len(active), 25*time.Second, nil, e.stream(1).attempts(nil))
	fmt.Printf("did not reproduce in %v (%d commits, %d failed)\n", res.Elapsed.Round(time.Second), res.Commits, res.Failed)
	return 0
}
