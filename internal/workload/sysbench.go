package workload

import (
	"fmt"
	"math/rand"
)

// SysbenchKind selects the SysBench OLTP variant (§5.2).
type SysbenchKind int

const (
	// SysbenchReadOnly is oltp_read_only: point selects only.
	SysbenchReadOnly SysbenchKind = iota
	// SysbenchReadWrite is oltp_read_write: selects + index updates +
	// delete/insert pairs.
	SysbenchReadWrite
	// SysbenchWriteOnly is oltp_write_only: updates + delete/insert pairs.
	SysbenchWriteOnly
)

func (k SysbenchKind) String() string {
	switch k {
	case SysbenchReadOnly:
		return "read-only"
	case SysbenchReadWrite:
		return "read-write"
	case SysbenchWriteOnly:
		return "write-only"
	}
	return "?"
}

// Sysbench models the adapted SysBench of §5.1: tables are divided into N+1
// groups for an N-node cluster — group i is private to node i; the last
// group is shared — and SharedPct percent of queries target the shared
// group.
type Sysbench struct {
	Kind SysbenchKind
	// Nodes is the cluster size N.
	Nodes int
	// TablesPerGroup (paper: 40; scale down for single-box runs).
	TablesPerGroup int
	// RowsPerTable (paper: 1M; scale down).
	RowsPerTable int
	// SharedPct is the percentage of queries against the shared group.
	SharedPct int
	// PointSelects / IndexUpdates / DeleteInserts per transaction
	// (sysbench defaults: 10 / 1 / 1; write-only drops the selects).
	PointSelects  int
	IndexUpdates  int
	DeleteInserts int
	// ValueSize is the row payload size (sysbench c/pad ~ 120 bytes).
	ValueSize int
	// Pacer injects per-statement service time (figure harness).
	Pacer

	tables map[string]uint32
}

// DefaultSysbench returns a paper-shaped configuration scaled to one box.
func DefaultSysbench(kind SysbenchKind, nodes, sharedPct int) *Sysbench {
	return &Sysbench{
		Kind:           kind,
		Nodes:          nodes,
		TablesPerGroup: 4,
		RowsPerTable:   2000,
		SharedPct:      sharedPct,
		PointSelects:   10,
		IndexUpdates:   1,
		DeleteInserts:  1,
		ValueSize:      120,
	}
}

func (s *Sysbench) tableName(group, idx int) string {
	return fmt.Sprintf("sbtest_g%d_t%d", group, idx)
}

// sharedGroup is the group index of the shared tables (groups 0..Nodes-1
// are private to the corresponding node).
func (s *Sysbench) sharedGroup() int { return s.Nodes }

func sbKey(row int) []byte { return []byte(fmt.Sprintf("%010d", row)) }

func sbValue(rng *rand.Rand, size int) []byte {
	v := make([]byte, size)
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := range v {
		v[i] = alpha[rng.Intn(len(alpha))]
	}
	return v
}

// Load creates all table groups and bulk-loads rows through the available
// nodes. Call once before Run.
func (s *Sysbench) Load(db DB) error {
	if s.tables == nil {
		s.tables = make(map[string]uint32)
	}
	rng := rand.New(rand.NewSource(42))
	for group := 0; group <= s.Nodes; group++ {
		for ti := 0; ti < s.TablesPerGroup; ti++ {
			name := s.tableName(group, ti)
			tab, err := db.CreateTable(name)
			if err != nil {
				return err
			}
			s.tables[name] = tab
			// Load through the owning node (shared group via node 0).
			node := group % db.NodeCount()
			if group == s.sharedGroup() {
				node = 0
			}
			const batch = 200
			for base := 0; base < s.RowsPerTable; base += batch {
				tx, err := db.Begin(node)
				if err != nil {
					return err
				}
				for row := base; row < base+batch && row < s.RowsPerTable; row++ {
					if err := tx.Insert(tab, sbKey(row), sbValue(rng, s.ValueSize)); err != nil {
						tx.Rollback()
						return fmt.Errorf("sysbench load %s row %d: %w", name, row, err)
					}
				}
				if err := tx.Commit(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pickTable chooses the table for the next query: SharedPct% from the
// shared group, the rest from the node's private group.
func (s *Sysbench) pickTable(rng *rand.Rand, node int) uint32 {
	group := node % s.Nodes
	if rng.Intn(100) < s.SharedPct {
		group = s.sharedGroup()
	}
	return s.tables[s.tableName(group, rng.Intn(s.TablesPerGroup))]
}

// TxFunc returns the per-thread transaction generator for node/thread.
func (s *Sysbench) TxFunc(node, thread int) TxFunc {
	rng := rand.New(rand.NewSource(int64(node)*1009 + int64(thread)*9176 + 1))
	return func(db DB, nd int) error {
		tx, err := db.Begin(nd)
		if err != nil {
			return err
		}
		abort := func(err error) error {
			tx.Rollback()
			return err
		}
		ps := s.Pacer.begin()
		if s.Kind != SysbenchWriteOnly {
			for i := 0; i < s.PointSelects; i++ {
				tab := s.pickTable(rng, nd)
				if _, err := tx.Get(tab, sbKey(rng.Intn(s.RowsPerTable))); err != nil && !isNotFound(err) {
					return abort(err)
				}
				ps.pace()
			}
		}
		if s.Kind != SysbenchReadOnly {
			for i := 0; i < s.IndexUpdates; i++ {
				tab := s.pickTable(rng, nd)
				key := sbKey(rng.Intn(s.RowsPerTable))
				if err := tx.Update(tab, key, sbValue(rng, s.ValueSize)); err != nil && !isNotFound(err) {
					return abort(err)
				}
				ps.pace()
			}
			for i := 0; i < s.DeleteInserts; i++ {
				tab := s.pickTable(rng, nd)
				key := sbKey(rng.Intn(s.RowsPerTable))
				if err := tx.Delete(tab, key); err != nil && !isNotFound(err) {
					return abort(err)
				}
				ps.pace()
				if err := tx.Insert(tab, key, sbValue(rng, s.ValueSize)); err != nil && !isKeyExists(err) {
					return abort(err)
				}
				ps.pace()
			}
		}
		return tx.Commit()
	}
}
