package wire

import (
	"time"

	"polardbmp/internal/common"
)

// SessionProtoVersion is the one session protocol version, carried in the
// hello exchange. A hello with any other version is refused, so incompatible
// binaries fail at connect time instead of mid-workload.
const SessionProtoVersion = 3

// Session control ops (KindControl frames; the handshake).
const (
	SessHello    uint8 = 1 // client -> server: [version u16][client name str]
	SessHelloAck uint8 = 2 // server -> client: [status]([version u16][server name str])
)

// Session request ops (KindRequest frames; the response echoes op and id
// with payload [status][result]).
const (
	OpBegin        uint8 = 1  // [iso u8][budget micros u64] -> [tx u64][gtrx]
	OpGet          uint8 = 2  // [tx u64][space u32][key bytes] -> [val bytes]
	OpGetForUpdate uint8 = 3  // as OpGet
	OpInsert       uint8 = 4  // [tx u64][space u32][key bytes][val bytes] -> []
	OpUpdate       uint8 = 5  // as OpInsert
	OpUpsert       uint8 = 6  // as OpInsert
	OpDelete       uint8 = 7  // [tx u64][space u32][key bytes] -> []
	OpScan         uint8 = 8  // [tx u64][space u32][from bytes][to bytes][limit u32] -> [n u32]{[key bytes][val bytes]}*; zero-length bounds mean unbounded
	OpCommit       uint8 = 9  // [tx u64] -> []
	OpRollback     uint8 = 10 // [tx u64] -> []
	OpCreateSpace  uint8 = 11 // [name str] -> [space u32]
	OpSpaceID      uint8 = 12 // [name str] -> [space u32]
	OpStats        uint8 = 13 // [] -> [stats JSON bytes]
	OpPing         uint8 = 14 // [] -> []

	// Admin ops.
	OpTopology uint8 = 15 // [] -> [topology JSON bytes]
	OpDrain    uint8 = 16 // [node u16] -> []
	OpJoinInfo uint8 = 17 // [] -> [join-info JSON bytes]

	// Resolve a transaction's outcome from its global id (the token the
	// OpBegin response carries).
	OpTxStatus uint8 = 18 // [gtrx] -> [outcome u8][cts u64]
)

// Transaction outcomes as reported by OpTxStatus (mirrors core.TxOutcome;
// part of the protocol — append only).
const (
	// TxStatusUnknown: no server-side layer could decide (outcome aged out of
	// every journal window). A resolution failure, never a guess.
	TxStatusUnknown uint8 = 0
	// TxStatusActive: the transaction (or its owner's takeover) is still in
	// flight; poll again.
	TxStatusActive uint8 = 1
	// TxStatusCommitted: durably committed; cts carries the commit timestamp.
	TxStatusCommitted uint8 = 2
	// TxStatusAborted: rolled back (including server-side rollback of a
	// transaction whose client connection died before commit).
	TxStatusAborted uint8 = 3
)

// KV is one key/value pair of a scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// Backend is the database surface a session server exposes; every backend
// serves every session op. The netsrv package adapts *core.Cluster to it;
// keeping the interface here (in primitive types) lets wire stay free of
// engine imports so rdma and core can both build on it.
type Backend interface {
	// Begin opens a transaction. budget > 0 propagates the client's
	// end-to-end deadline into the engine (ErrDeadlineExceeded on expiry).
	Begin(iso uint8, budget time.Duration) (Tx, error)
	// CreateSpace creates (or finds) a named tablespace.
	CreateSpace(name string) (uint32, error)
	// SpaceID resolves a tablespace name.
	SpaceID(name string) (uint32, error)
	// StatsJSON returns the process's stats snapshot as JSON.
	StatsJSON() ([]byte, error)
	// TopologyJSON returns the cluster topology snapshot as JSON.
	TopologyJSON() ([]byte, error)
	// Drain gracefully drains node (blocking until it finished or the drain
	// timeout expired).
	Drain(node uint16) error
	// JoinInfoJSON describes how a new process joins this cluster (fabric
	// address, cluster name, this daemon's node ids) as JSON.
	JoinInfoJSON() ([]byte, error)
	// TxStatus resolves the outcome of a (possibly foreign) transaction from
	// its global id: one of the TxStatus* outcomes and, for committed
	// transactions, the commit timestamp.
	TxStatus(g common.GTrxID) (outcome uint8, cts uint64, err error)
}

// Tx is one open transaction on the backend. The server serializes calls on
// a single Tx; distinct transactions proceed concurrently.
type Tx interface {
	// GTrxID is the engine's global transaction id. The OpBegin response
	// carries it so the client can resolve an ambiguous commit.
	GTrxID() common.GTrxID
	Get(space uint32, key []byte) ([]byte, error)
	GetForUpdate(space uint32, key []byte) ([]byte, error)
	Insert(space uint32, key, value []byte) error
	Update(space uint32, key, value []byte) error
	Upsert(space uint32, key, value []byte) error
	Delete(space uint32, key []byte) error
	Scan(space uint32, from, to []byte, limit int) ([]KV, error)
	Commit() error
	Rollback() error
}

// AppendHello encodes [version u16][name str]: a SessHello payload, and
// what the session and fabric hello-acks carry after their status.
func AppendHello(b []byte, version uint16, name string) []byte {
	b = AppendU16(b, version)
	return AppendString(b, name)
}

// DecodeHello decodes what AppendHello encodes; a byte past the name is
// corrupt.
func DecodeHello(payload []byte) (version uint16, name string, err error) {
	rd := NewReader(payload)
	version = rd.U16()
	name = rd.Str()
	return version, name, rd.Done()
}
