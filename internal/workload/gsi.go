package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// GSI is the global-secondary-index workload of §5.4 (Figure 13): sustained
// random inserts into a table carrying k global secondary indexes. On a
// shared-nothing system each insert touches the primary partition plus one
// partition per index, forcing two-phase commit; on PolarDB-MP the secondary
// indexes are just additional B-trees maintained by the same single-node
// transaction.
type GSI struct {
	// Indexes is the number of global secondary indexes (0..8 in Fig 13).
	Indexes int
	// ValueSize is the row payload.
	ValueSize int
	// PreloadRows seeds the primary and index trees before measurement so
	// they have realistic fan-out (an empty index would make every node
	// collide on a handful of leaves).
	PreloadRows int
	// Pacer injects per-statement service time (figure harness).
	Pacer

	primary uint32
	indexes []uint32
	seq     [64]atomic.Uint64
}

// DefaultGSI returns the Figure 13 workload with k indexes.
func DefaultGSI(k int) *GSI { return &GSI{Indexes: k, ValueSize: 100, PreloadRows: 1500} }

// Load creates the primary table and its k index tables.
func (g *GSI) Load(db DB) error {
	var err error
	if g.primary, err = db.CreateTable(fmt.Sprintf("gsi%d_primary", g.Indexes)); err != nil {
		return err
	}
	g.indexes = g.indexes[:0]
	for i := 0; i < g.Indexes; i++ {
		idx, err := db.CreateTable(fmt.Sprintf("gsi%d_idx%d", g.Indexes, i))
		if err != nil {
			return err
		}
		g.indexes = append(g.indexes, idx)
	}
	// Preload without pacing: grow the trees to realistic fan-out.
	rng := rand.New(rand.NewSource(97))
	const batch = 100
	for base := 0; base < g.PreloadRows; base += batch {
		tx, err := db.Begin(0)
		if err != nil {
			return err
		}
		for i := base; i < base+batch && i < g.PreloadRows; i++ {
			id := g.seq[0].Add(1)
			pk := []byte(fmt.Sprintf("row-%02d-%012d", 0, id))
			val := make([]byte, g.ValueSize)
			rng.Read(val)
			if err := tx.Insert(g.primary, pk, val); err != nil {
				tx.Rollback()
				return err
			}
			for j, idx := range g.indexes {
				sk := []byte(fmt.Sprintf("attr%d-%08d-%s", j, rng.Intn(1e8), pk))
				if err := tx.Insert(idx, sk, pk); err != nil {
					tx.Rollback()
					return err
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// TxFunc returns the insert generator: one primary row plus one entry per
// secondary index, all in one transaction.
func (g *GSI) TxFunc(node, thread int) TxFunc {
	rng := rand.New(rand.NewSource(int64(node)*52361 + int64(thread)*797 + 23))
	return func(db DB, nd int) error {
		id := g.seq[nd%len(g.seq)].Add(1)
		ps := g.Pacer.begin()
		pk := []byte(fmt.Sprintf("row-%02d-%012d", nd, id))
		tx, err := db.Begin(nd)
		if err != nil {
			return err
		}
		// Fixed per-transaction cost: client round trip, SQL parsing and
		// commit processing. In production this dominates a single-row
		// insert, which is why adding one GSI costs the paper's systems
		// only ~20% — the marginal index write is small against it.
		ps.pace()
		ps.pace()
		ps.pace()
		abort := func(err error) error { tx.Rollback(); return err }
		val := make([]byte, g.ValueSize)
		rng.Read(val)
		if err := tx.Insert(g.primary, pk, val); err != nil {
			return abort(err)
		}
		ps.pace()
		for i, idx := range g.indexes {
			// Secondary key: random attribute value + pk for uniqueness.
			sk := []byte(fmt.Sprintf("attr%d-%08d-%s", i, rng.Intn(1e8), pk))
			if err := tx.Insert(idx, sk, pk); err != nil {
				return abort(err)
			}
			ps.pace()
		}
		return tx.Commit()
	}
}
