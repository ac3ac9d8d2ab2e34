package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// ProdMix is the synthetic stand-in for the Alibaba trading-service trace
// (§5.2, Figure 10; DESIGN.md substitution S5): memory-intensive, a 3:2:5
// insert:update:select statement mix, well-partitioned at the application
// level (each node works its own key range), with a handful of statements
// per transaction.
type ProdMix struct {
	// Nodes is the cluster size the key space is partitioned for.
	Nodes int
	// HotRows is the per-node working set receiving updates/selects.
	HotRows int
	// StatementsPerTx (trades bundle a few statements).
	StatementsPerTx int
	// ValueSize is the order-record payload size.
	ValueSize int
	// Pacer injects per-statement service time (figure harness).
	Pacer

	table  uint32
	nextID [64]atomic.Uint64 // per-node insert sequence
}

// DefaultProdMix returns a box-scale configuration.
func DefaultProdMix(nodes int) *ProdMix {
	return &ProdMix{Nodes: nodes, HotRows: 2000, StatementsPerTx: 5, ValueSize: 200}
}

func (p *ProdMix) key(node int, id uint64) []byte {
	return []byte(fmt.Sprintf("trade-%02d-%012d", node, id))
}

// Load creates the trade table and seeds each node's hot rows.
func (p *ProdMix) Load(db DB) error {
	tab, err := db.CreateTable("prod_trades")
	if err != nil {
		return err
	}
	p.table = tab
	const batch = 200
	for node := 0; node < p.Nodes; node++ {
		for base := 0; base < p.HotRows; base += batch {
			tx, err := db.Begin(node % db.NodeCount())
			if err != nil {
				return err
			}
			for i := base; i < base+batch && i < p.HotRows; i++ {
				if err := tx.Insert(p.table, p.key(node, uint64(i)), make([]byte, p.ValueSize)); err != nil {
					tx.Rollback()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		p.nextID[node].Store(uint64(p.HotRows))
	}
	return nil
}

// TxFunc returns the 3:2:5 insert:update:select generator, partitioned so
// node nd only touches its own trades.
func (p *ProdMix) TxFunc(node, thread int) TxFunc {
	rng := rand.New(rand.NewSource(int64(node)*27644437 + int64(thread)*613 + 5))
	return func(db DB, nd int) error {
		part := nd % p.Nodes
		tx, err := db.Begin(nd)
		if err != nil {
			return err
		}
		abort := func(err error) error { tx.Rollback(); return err }
		ps := p.Pacer.begin()
		for s := 0; s < p.StatementsPerTx; s++ {
			ps.pace()
			switch r := rng.Intn(10); {
			case r < 3: // insert (30%)
				id := p.nextID[part].Add(1)
				if err := tx.Insert(p.table, p.key(part, id), make([]byte, p.ValueSize)); err != nil && !isKeyExists(err) {
					return abort(err)
				}
			case r < 5: // update (20%)
				id := uint64(rng.Intn(p.HotRows))
				if err := tx.Update(p.table, p.key(part, id), make([]byte, p.ValueSize)); err != nil && !isNotFound(err) {
					return abort(err)
				}
			default: // select (50%)
				hi := p.nextID[part].Load()
				if hi == 0 {
					hi = 1
				}
				id := uint64(rng.Int63n(int64(hi)))
				if _, err := tx.Get(p.table, p.key(part, id)); err != nil && !isNotFound(err) {
					return abort(err)
				}
			}
		}
		return tx.Commit()
	}
}
