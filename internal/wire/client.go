package wire

import (
	"errors"
	"fmt"
	"time"

	"polardbmp/internal/common"
)

// Client is a session-protocol client: one framed connection to one server
// (or gateway), pipelining requests from any number of goroutines and
// redialed when it dies. Transactions are pinned to the connection they
// began on, so a gateway can route per-connection without tracking
// transaction state.
type Client struct {
	addr string
	cfg  SessionConfig
	link *Redial[*sessionConn]
}

// SessionConfig tunes DialSession.
type SessionConfig struct {
	// Name identifies this client in the server's hello handshake.
	Name string
	// Counters receives this client's frame accounting (may be nil).
	Counters *NetCounters
	// DialTimeout bounds each connection attempt (default 3s).
	DialTimeout time.Duration
}

func (c *SessionConfig) fill() {
	if c.Name == "" {
		c.Name = "client"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
}

// DialSession connects and runs the hello handshake. ServerName reports
// what the far end called itself.
func DialSession(addr string, cfg SessionConfig) (*Client, error) {
	cfg.fill()
	c := &Client{addr: addr, cfg: cfg}
	c.link = NewRedial("session to "+addr, c.dial)
	if _, err := c.link.Get(); err != nil {
		return nil, err
	}
	return c, nil
}

// ServerName returns the name the server presented in the handshake.
func (c *Client) ServerName() string {
	if sc := c.link.Last(); sc != nil {
		return sc.serverName
	}
	return ""
}

// Close tears down the connection. In-flight and later calls fail with
// ErrUnreachable.
func (c *Client) Close() {
	c.link.Close(fmt.Errorf("wire: session to %s closed: %w", c.addr, common.ErrUnreachable))
}

func (c *Client) dial() (*sessionConn, error) {
	hello := Frame{Kind: KindControl, Op: SessHello, Payload: AppendHello(nil, SessionProtoVersion, c.cfg.Name)}
	conn, _, body, err := Dial(c.addr, c.cfg.Counters, hello, SessHelloAck, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	sc := &sessionConn{Link: NewLink(conn, c.cfg.Counters, false)}
	if _, name, err := DecodeHello(body); err == nil {
		sc.serverName = name
	}
	go sc.Run()
	return sc, nil
}

// call runs one request/response on the connection.
func (c *Client) call(op uint8, payload []byte) ([]byte, error) {
	sc, err := c.link.Get()
	if err != nil {
		return nil, err
	}
	return sc.call(op, payload)
}

// Ping round-trips a no-op request (health probe).
func (c *Client) Ping() error {
	_, err := c.call(OpPing, nil)
	return err
}

// StatsJSON fetches the server's stats snapshot.
func (c *Client) StatsJSON() ([]byte, error) {
	return c.call(OpStats, nil)
}

// TopologyJSON fetches the cluster topology snapshot.
func (c *Client) TopologyJSON() ([]byte, error) {
	return c.call(OpTopology, nil)
}

// Drain gracefully drains a node through the server. The call blocks until
// the drain finished or the server's drain timeout expired.
func (c *Client) Drain(node uint16) error {
	_, err := c.call(OpDrain, AppendU16(nil, node))
	return err
}

// JoinInfoJSON fetches the server's cluster-join coordinates.
func (c *Client) JoinInfoJSON() ([]byte, error) {
	return c.call(OpJoinInfo, nil)
}

// TxStatus resolves the outcome of a transaction from its global id. Returns
// one of the TxStatus* outcomes and, for committed transactions, the commit
// timestamp.
func (c *Client) TxStatus(g common.GTrxID) (outcome uint8, cts uint64, err error) {
	out, err := c.call(OpTxStatus, g.Marshal(nil))
	if err != nil {
		return TxStatusUnknown, 0, err
	}
	rd := NewReader(out)
	outcome = rd.U8()
	cts = rd.U64()
	return outcome, cts, rd.Err()
}

// ResolveTx resolves an ambiguous commit: it polls TxStatus until the
// outcome is definitive (committed or aborted), absorbing transient
// transport faults and TxStatusActive answers with jittered backoff, for at
// most timeout. This is the only correct reaction to ErrCommitAmbiguous —
// never retry the transaction before knowing its fate. A TxStatusUnknown or
// expiry returns the outcome so far with a non-nil error; the caller must
// treat the transaction as unresolved, not as aborted.
func (c *Client) ResolveTx(g common.GTrxID, timeout time.Duration) (outcome uint8, cts uint64, err error) {
	if g.Zero() {
		return TxStatusUnknown, 0, fmt.Errorf("wire: resolve tx: zero global id (backend without global ids?)")
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	backoff := 5 * time.Millisecond
	for {
		outcome, cts, err = c.TxStatus(g)
		switch {
		case err == nil && (outcome == TxStatusCommitted || outcome == TxStatusAborted):
			return outcome, cts, nil
		case err == nil && outcome == TxStatusUnknown:
			return TxStatusUnknown, 0, fmt.Errorf("wire: resolve tx %v: outcome unresolvable", g)
		case err != nil && !errors.Is(err, common.ErrUnreachable) && !errors.Is(err, common.ErrInjected):
			// A definitive server-side refusal (bad op, no status backend).
			return TxStatusUnknown, 0, err
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("wire: resolve tx %v: still %d after %v", g, outcome, timeout)
			}
			return TxStatusUnknown, 0, err
		}
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// CreateSpace creates (or finds) a named tablespace.
func (c *Client) CreateSpace(name string) (uint32, error) {
	out, err := c.call(OpCreateSpace, AppendString(nil, name))
	if err != nil {
		return 0, err
	}
	return NewReader(out).U32(), nil
}

// SpaceID resolves a tablespace name.
func (c *Client) SpaceID(name string) (uint32, error) {
	out, err := c.call(OpSpaceID, AppendString(nil, name))
	if err != nil {
		return 0, err
	}
	return NewReader(out).U32(), nil
}

// Begin opens a transaction pinned to the connection it began on. budget > 0
// ships the end-to-end deadline to the server.
func (c *Client) Begin(iso uint8, budget time.Duration) (*ClientTx, error) {
	sc, err := c.link.Get()
	if err != nil {
		return nil, err
	}
	req := append([]byte{iso}, AppendU64(nil, uint64(budget/time.Microsecond))...)
	out, err := sc.call(OpBegin, req)
	if err != nil {
		return nil, err
	}
	rd := NewReader(out)
	tx := &ClientTx{sc: sc, id: rd.U64()}
	// The response carries the engine's global transaction id — the token
	// an ambiguous commit is later resolved with.
	if g, _, err := common.UnmarshalGTrxID(rd.Rest()); err == nil {
		tx.gtrx = g
	}
	return tx, nil
}

// ClientBackend presents a Client as a Backend, so code written against that
// interface runs unchanged over the network. Every method is the Client's
// own; Begin alone needs its result widened to Tx.
type ClientBackend struct{ *Client }

// Begin is Client.Begin returning the interface type.
func (c ClientBackend) Begin(iso uint8, budget time.Duration) (Tx, error) {
	tx, err := c.Client.Begin(iso, budget)
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// ClientTx is a transaction handle; safe for one goroutine (like sql.Tx).
type ClientTx struct {
	sc   *sessionConn
	id   uint64
	gtrx common.GTrxID // global id, from the OpBegin response
}

// GTrxID returns the transaction's global id.
func (tx *ClientTx) GTrxID() common.GTrxID { return tx.gtrx }

func (tx *ClientTx) keyReq(space uint32, key []byte) []byte {
	b := AppendU64(nil, tx.id)
	b = AppendU32(b, space)
	return AppendBytes(b, key)
}

// Get reads a key under the transaction's read view.
func (tx *ClientTx) Get(space uint32, key []byte) ([]byte, error) {
	out, err := tx.sc.call(OpGet, tx.keyReq(space, key))
	if err != nil {
		return nil, err
	}
	return NewReader(out).Bytes(), nil
}

// GetForUpdate reads a key holding its row lock.
func (tx *ClientTx) GetForUpdate(space uint32, key []byte) ([]byte, error) {
	out, err := tx.sc.call(OpGetForUpdate, tx.keyReq(space, key))
	if err != nil {
		return nil, err
	}
	return NewReader(out).Bytes(), nil
}

func (tx *ClientTx) put(op uint8, space uint32, key, value []byte) error {
	req := AppendBytes(tx.keyReq(space, key), value)
	_, err := tx.sc.call(op, req)
	return err
}

// Insert adds a new row (ErrKeyExists if present).
func (tx *ClientTx) Insert(space uint32, key, value []byte) error {
	return tx.put(OpInsert, space, key, value)
}

// Update overwrites an existing row (ErrNotFound if absent).
func (tx *ClientTx) Update(space uint32, key, value []byte) error {
	return tx.put(OpUpdate, space, key, value)
}

// Upsert inserts or overwrites.
func (tx *ClientTx) Upsert(space uint32, key, value []byte) error {
	return tx.put(OpUpsert, space, key, value)
}

// Delete removes a row.
func (tx *ClientTx) Delete(space uint32, key []byte) error {
	_, err := tx.sc.call(OpDelete, tx.keyReq(space, key))
	return err
}

// Scan returns up to limit rows in [from, to) (nil bounds are open).
func (tx *ClientTx) Scan(space uint32, from, to []byte, limit int) ([]KV, error) {
	req := AppendU64(nil, tx.id)
	req = AppendU32(req, space)
	req = AppendBytes(req, from)
	req = AppendBytes(req, to)
	req = AppendU32(req, uint32(limit))
	out, err := tx.sc.call(OpScan, req)
	if err != nil {
		return nil, err
	}
	rd := NewReader(out)
	n := int(rd.U32())
	kvs := make([]KV, 0, n)
	for i := 0; i < n; i++ {
		k := append([]byte(nil), rd.Bytes()...)
		v := append([]byte(nil), rd.Bytes()...)
		kvs = append(kvs, KV{Key: k, Value: v})
	}
	return kvs, rd.Err()
}

// AmbiguousCommitError reports a commit whose outcome is unknown: the
// request was sent (or may have been) but the connection died before the
// answer came back, or a gateway lost its backend with the commit in flight.
// It matches errors.Is(err, common.ErrCommitAmbiguous); GTrx is the token to
// resolve the real outcome with (Client.ResolveTx / TxStatus). The
// transaction MUST NOT be blindly retried.
type AmbiguousCommitError struct {
	GTrx  common.GTrxID
	cause error
}

func (e *AmbiguousCommitError) Error() string {
	return fmt.Sprintf("wire: commit of %v: %v", e.GTrx, e.cause)
}

// Unwrap exposes the transport/status error that made the commit ambiguous.
func (e *AmbiguousCommitError) Unwrap() error { return e.cause }

// Is matches the shared sentinel.
func (e *AmbiguousCommitError) Is(target error) bool {
	return target == common.ErrCommitAmbiguous
}

// Commit makes the transaction durable. If the connection dies with the
// commit in flight the outcome is genuinely unknown — the server completes
// an in-flight commit even when its client vanishes — so Commit returns an
// *AmbiguousCommitError (errors.Is ErrCommitAmbiguous) instead of guessing;
// resolve it with Client.ResolveTx. Errors the server itself reported are
// definitive and returned as-is.
func (tx *ClientTx) Commit() error {
	_, responded, err := tx.sc.Call(OpCommit, AppendU64(nil, tx.id))
	if err == nil {
		return nil
	}
	if !tx.gtrx.Zero() && (!responded || errors.Is(err, common.ErrCommitAmbiguous)) {
		return &AmbiguousCommitError{GTrx: tx.gtrx, cause: err}
	}
	return err
}

// Rollback abandons the transaction.
func (tx *ClientTx) Rollback() error {
	_, err := tx.sc.call(OpRollback, AppendU64(nil, tx.id))
	return err
}

// sessionConn is the client's connection: a Link plus what the hello learned.
type sessionConn struct {
	*Link
	serverName string
}

func (sc *sessionConn) call(op uint8, payload []byte) ([]byte, error) {
	out, _, err := sc.Call(op, payload)
	return out, err
}
