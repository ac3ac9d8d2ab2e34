package wire

import (
	"errors"
	"sync/atomic"
	"testing"

	"polardbmp/internal/common"
)

// TestSessionRefusesTrailingBytes: a session request with a byte past its
// last field is answered with a typed ErrCorrupt status, and the backend
// never sees it.
func TestSessionRefusesTrailingBytes(t *testing.T) {
	be := newStubBackend()
	var statuses atomic.Int64
	be.statusHook = func(common.GTrxID) (uint8, uint64, error) { statuses.Add(1); return 1, 7, nil }
	_, addr := serveStub(t, be)
	c, err := DialSession(addr, SessionConfig{Name: "trailing"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, req := range []struct {
		name    string
		op      uint8
		payload []byte
	}{
		{"begin", OpBegin, AppendU64([]byte{0}, 0)},
		{"commit", OpCommit, AppendU64(nil, 1)},
		{"ping", OpPing, nil},
		{"create space", OpCreateSpace, AppendString(nil, "s")},
		{"tx status", OpTxStatus, common.GTrxID{Node: 1, Trx: 1, Slot: 1, Version: 1}.Marshal(nil)},
	} {
		if _, err := c.call(req.op, append(req.payload, 0)); !errors.Is(err, common.ErrCorrupt) {
			t.Errorf("%s with a trailing byte: err = %v, want ErrCorrupt", req.name, err)
		}
	}
	be.mu.Lock()
	begun := be.nextTrx
	be.mu.Unlock()
	if begun != 0 || statuses.Load() != 0 {
		t.Errorf("refused requests were served: %d begins, %d status lookups", begun, statuses.Load())
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("well-formed ping after the refusals: %v", err)
	}
}
