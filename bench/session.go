package main

// One client session as the load generator sees it. Two implementations:
// the wire client (deployed workloads, direct or through the gateway) and
// the in-process library handle (lib_rw_cold). Tables are addressed by
// index into the workload's table list.

import (
	"polardbmp"
	"polardbmp/internal/wire"
)

type row struct{ key, value []byte }

type dbTx interface {
	Get(table int, key []byte) ([]byte, error)
	GetForUpdate(table int, key []byte) ([]byte, error)
	Insert(table int, key, value []byte) error
	Update(table int, key, value []byte) error
	Scan(table int) ([]row, error)
	Commit() error
	Rollback() error
}

type dbSession interface {
	// Begin opens a read-committed transaction, or a snapshot-isolation one.
	Begin(snapshot bool) (dbTx, error)
	Close()
}

// wireSession speaks the session protocol to one mpserver or mpgateway.
type wireSession struct {
	cl     *wire.Client
	spaces []uint32
}

// dialWire opens a single-connection session and resolves (creating if
// needed) the workload's tables.
func dialWire(addr, name string, tables []string) (*wireSession, error) {
	cl, err := wire.DialSession(addr, wire.SessionConfig{Name: name})
	if err != nil {
		return nil, err
	}
	s := &wireSession{cl: cl}
	for _, t := range tables {
		sp, err := cl.CreateSpace(t)
		if err != nil {
			cl.Close()
			return nil, err
		}
		s.spaces = append(s.spaces, sp)
	}
	return s, nil
}

func (s *wireSession) Close() { s.cl.Close() }

func (s *wireSession) Begin(snapshot bool) (dbTx, error) {
	var iso uint8 // core.ReadCommitted
	if snapshot {
		iso = 1 // core.SnapshotIsolation
	}
	tx, err := s.cl.Begin(iso, 0)
	if err != nil {
		return nil, err
	}
	return &wireTx{tx: tx, spaces: s.spaces}, nil
}

type wireTx struct {
	tx     *wire.ClientTx
	spaces []uint32
}

func (t *wireTx) Get(table int, key []byte) ([]byte, error) { return t.tx.Get(t.spaces[table], key) }
func (t *wireTx) GetForUpdate(table int, key []byte) ([]byte, error) {
	return t.tx.GetForUpdate(t.spaces[table], key)
}
func (t *wireTx) Insert(table int, key, value []byte) error {
	return t.tx.Insert(t.spaces[table], key, value)
}
func (t *wireTx) Update(table int, key, value []byte) error {
	return t.tx.Update(t.spaces[table], key, value)
}
func (t *wireTx) Scan(table int) ([]row, error) {
	kvs, err := t.tx.Scan(t.spaces[table], nil, nil, 0)
	rows := make([]row, len(kvs))
	for i, kv := range kvs {
		rows[i] = row{kv.Key, kv.Value}
	}
	return rows, err
}
func (t *wireTx) Commit() error   { return t.tx.Commit() }
func (t *wireTx) Rollback() error { return t.tx.Rollback() }

// libSession is one primary of an in-process cluster.
type libSession struct {
	node   *polardbmp.Node
	tables []polardbmp.Table
}

func (s *libSession) Close() {}

func (s *libSession) Begin(snapshot bool) (dbTx, error) {
	begin := s.node.Begin
	if snapshot {
		begin = s.node.BeginSnapshot
	}
	tx, err := begin()
	if err != nil {
		return nil, err
	}
	return &libTx{tx: tx, tables: s.tables}, nil
}

type libTx struct {
	tx     *polardbmp.Tx
	tables []polardbmp.Table
}

func (t *libTx) Get(table int, key []byte) ([]byte, error) { return t.tx.Get(t.tables[table], key) }
func (t *libTx) GetForUpdate(table int, key []byte) ([]byte, error) {
	return t.tx.GetForUpdate(t.tables[table], key)
}
func (t *libTx) Insert(table int, key, value []byte) error {
	return t.tx.Insert(t.tables[table], key, value)
}
func (t *libTx) Update(table int, key, value []byte) error {
	return t.tx.Update(t.tables[table], key, value)
}
func (t *libTx) Scan(table int) ([]row, error) {
	kvs, err := t.tx.Scan(t.tables[table], nil, nil, 0)
	rows := make([]row, len(kvs))
	for i, kv := range kvs {
		rows[i] = row{kv.Key, kv.Value}
	}
	return rows, err
}
func (t *libTx) Commit() error   { return t.tx.Commit() }
func (t *libTx) Rollback() error { return t.tx.Rollback() }
