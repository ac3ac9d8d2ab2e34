package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"polardbmp/internal/common"
)

// Server accepts client sessions on a listener and executes their requests
// against a Backend. Requests on one connection are pipelined: each runs on
// one of the link's worker goroutines, concurrently with the others, and
// responses return in completion order, correlated by frame id. Operations on the same transaction serialize on a per-tx mutex;
// a connection that drops with transactions open has them rolled back, so a
// dying client cannot leak row locks or TIT slots.
type Server struct {
	name string
	be   Backend
	nc   *NetCounters
	lis  net.Listener

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// ServeSessions starts serving the session protocol for be on lis. name is
// echoed in the hello ack (observability). Close stops the listener and
// tears down every live session.
func ServeSessions(lis net.Listener, name string, be Backend, nc *NetCounters) *Server {
	s := &Server{name: name, be: be, nc: nc, lis: lis, sessions: make(map[*session]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Close stops accepting, closes every session connection, rolls their open
// transactions back, and waits for all session goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	_ = s.lis.Close()
	for _, sess := range sessions {
		_ = sess.conn.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		sess := &session{srv: s, conn: conn, txs: make(map[uint64]*sessionTx)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go sess.run()
	}
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// session is one accepted client connection: the transactions it has open.
// The framed link under it is run, not kept — conn is here for Close.
type session struct {
	srv  *Server
	conn net.Conn

	txMu   sync.Mutex
	txs    map[uint64]*sessionTx
	nextTx uint64
}

// sessionTx wraps one open transaction; mu serializes pipelined requests
// that name the same tx.
type sessionTx struct {
	mu   sync.Mutex
	tx   Tx
	done bool
}

// run serves the session until its connection dies. Link.Run returns only
// after every request in flight has answered, so the rollback that follows
// races none of them.
func (ss *session) run() {
	defer ss.srv.wg.Done()
	defer ss.srv.dropSession(ss)
	if err := ss.handshake(); err != nil {
		_ = ss.conn.Close()
		return
	}
	link := NewLink(ss.conn, ss.srv.nc, true)
	link.Serve = ss.serve
	link.Run()
	ss.rollbackOpen()
}

// rollbackOpen rolls back whatever transactions the client left open.
func (ss *session) rollbackOpen() {
	ss.txMu.Lock()
	open := make([]*sessionTx, 0, len(ss.txs))
	for _, st := range ss.txs {
		open = append(open, st)
	}
	ss.txs = map[uint64]*sessionTx{}
	ss.txMu.Unlock()
	for _, st := range open {
		st.mu.Lock()
		if !st.done {
			st.done = true
			_ = st.tx.Rollback()
		}
		st.mu.Unlock()
	}
}

func (ss *session) handshake() error {
	_ = ss.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, _, err := ReadFrame(ss.conn, nil)
	if err != nil {
		return err
	}
	_ = ss.conn.SetReadDeadline(time.Time{})
	ss.srv.nc.FrameIn(f.WireSize())
	if f.Kind != KindControl || f.Op != SessHello {
		ss.srv.nc.CodecError()
		return fmt.Errorf("wire: session opened with frame kind %d op %d: %w", f.Kind, f.Op, ErrBadFrame)
	}
	version, _, status := DecodeHello(f.Payload)
	if status == nil && version != SessionProtoVersion {
		// This server cannot promise the semantics another version's client
		// expects, so refuse at connect time.
		status = fmt.Errorf("wire: session version %d, server speaks %d: %w", version, SessionProtoVersion, common.ErrCorrupt)
	}
	var acked uint16 // a refusal acks version 0
	if status == nil {
		acked = SessionProtoVersion
	}
	ack := Frame{Kind: KindControl, Op: SessHelloAck, ID: f.ID, Payload: AppendHello(AppendStatus(nil, status), acked, ss.srv.name)}
	if _, err := WriteFrame(ss.conn, nil, ack); err != nil {
		return err
	}
	ss.srv.nc.FrameOut(ack.WireSize())
	return status
}

// registerTx assigns a session-scoped tx id.
func (ss *session) registerTx(tx Tx) uint64 {
	ss.txMu.Lock()
	defer ss.txMu.Unlock()
	ss.nextTx++
	id := ss.nextTx
	ss.txs[id] = &sessionTx{tx: tx}
	return id
}

func (ss *session) lookupTx(id uint64) (*sessionTx, error) {
	ss.txMu.Lock()
	defer ss.txMu.Unlock()
	st := ss.txs[id]
	if st == nil {
		return nil, fmt.Errorf("wire: tx %d: %w", id, common.ErrTxDone)
	}
	return st, nil
}

func (ss *session) finishTx(id uint64) {
	ss.txMu.Lock()
	delete(ss.txs, id)
	ss.txMu.Unlock()
}

// withTx runs fn holding the transaction's mutex. final removes the tx from
// the session (commit/rollback paths).
func (ss *session) withTx(id uint64, final bool, fn func(Tx) error) error {
	st, err := ss.lookupTx(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return fmt.Errorf("wire: tx %d: %w", id, common.ErrTxDone)
	}
	if final {
		st.done = true
		ss.finishTx(id)
	}
	return fn(st.tx)
}

func (ss *session) serve(op uint8, payload []byte) ([]byte, error) {
	rd := NewReader(payload)
	switch op {
	case OpBegin:
		iso := rd.U8()
		budget := time.Duration(rd.U64()) * time.Microsecond
		if err := rd.Done(); err != nil {
			return nil, err
		}
		tx, err := ss.srv.be.Begin(iso, budget)
		if err != nil {
			return nil, err
		}
		// The response carries the engine's global transaction id so the
		// client can resolve an ambiguous commit.
		return tx.GTrxID().Marshal(AppendU64(nil, ss.registerTx(tx))), nil
	case OpGet, OpGetForUpdate:
		id, space, key := rd.U64(), rd.U32(), rd.Bytes()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		var val []byte
		err := ss.withTx(id, false, func(tx Tx) error {
			var err error
			if op == OpGetForUpdate {
				val, err = tx.GetForUpdate(space, key)
			} else {
				val, err = tx.Get(space, key)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		return AppendBytes(nil, val), nil
	case OpInsert, OpUpdate, OpUpsert:
		id, space, key, val := rd.U64(), rd.U32(), rd.Bytes(), rd.Bytes()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return nil, ss.withTx(id, false, func(tx Tx) error {
			switch op {
			case OpInsert:
				return tx.Insert(space, key, val)
			case OpUpdate:
				return tx.Update(space, key, val)
			default:
				return tx.Upsert(space, key, val)
			}
		})
	case OpDelete:
		id, space, key := rd.U64(), rd.U32(), rd.Bytes()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return nil, ss.withTx(id, false, func(tx Tx) error { return tx.Delete(space, key) })
	case OpScan:
		id, space, from, to, limit := rd.U64(), rd.U32(), rd.Bytes(), rd.Bytes(), rd.U32()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		// The codec cannot distinguish nil from empty; a zero-length bound
		// means unbounded (an empty exclusive upper bound excludes all keys,
		// which no client can want).
		if len(from) == 0 {
			from = nil
		}
		if len(to) == 0 {
			to = nil
		}
		var kvs []KV
		err := ss.withTx(id, false, func(tx Tx) error {
			var err error
			kvs, err = tx.Scan(space, from, to, int(limit))
			return err
		})
		if err != nil {
			return nil, err
		}
		out := AppendU32(nil, uint32(len(kvs)))
		for _, kv := range kvs {
			out = AppendBytes(out, kv.Key)
			out = AppendBytes(out, kv.Value)
		}
		return out, nil
	case OpCommit:
		id := rd.U64()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return nil, ss.withTx(id, true, func(tx Tx) error { return tx.Commit() })
	case OpRollback:
		id := rd.U64()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return nil, ss.withTx(id, true, func(tx Tx) error { return tx.Rollback() })
	case OpCreateSpace:
		name := rd.Str()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		space, err := ss.srv.be.CreateSpace(name)
		if err != nil {
			return nil, err
		}
		return AppendU32(nil, space), nil
	case OpSpaceID:
		name := rd.Str()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		space, err := ss.srv.be.SpaceID(name)
		if err != nil {
			return nil, err
		}
		return AppendU32(nil, space), nil
	case OpStats:
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return ss.srv.be.StatsJSON()
	case OpPing:
		return nil, rd.Done()
	case OpTopology, OpJoinInfo:
		if err := rd.Done(); err != nil {
			return nil, err
		}
		if op == OpTopology {
			return ss.srv.be.TopologyJSON()
		}
		return ss.srv.be.JoinInfoJSON()
	case OpDrain:
		node := rd.U16()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		return nil, ss.srv.be.Drain(node)
	case OpTxStatus:
		g := rd.GTrx()
		if err := rd.Done(); err != nil {
			return nil, err
		}
		outcome, cts, err := ss.srv.be.TxStatus(g)
		if err != nil {
			return nil, err
		}
		return AppendU64([]byte{outcome}, cts), nil
	default:
		return nil, fmt.Errorf("wire: session op %d: %w", op, common.ErrNoService)
	}
}
