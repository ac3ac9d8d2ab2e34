package lockfusion

import (
	"errors"
	"testing"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// TestPLockRefusesUnknownMode: an acquire, a release or a batched revoke
// that names a mode outside {S, X} is refused as corrupt, and neither the
// server's holder table nor the holder's own lock changes.
func TestPLockRefusesUnknownMode(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	if err := tc.pl[0].Acquire(2, ModeX); err != nil {
		t.Fatal(err)
	}
	tc.pl[0].Release(2) // lazily retained: node 1 holds page 2 in X
	table := tc.srv.PLock.DebugDump()

	for name, req := range map[string][]byte{
		"acquire": plockAcquireReqBuf(2, 1, Mode(200), 0),
		"release": plockReleaseNBuf(1, []relPage{{pg: 2, mode: Mode(200), llsn: 9}}),
	} {
		if _, err := tc.fabric.Call(common.PMFSNode, ServicePLock, req); !errors.Is(err, common.ErrCorrupt) {
			t.Errorf("%s with mode 200: err = %v, want ErrCorrupt", name, err)
		}
		if got := tc.srv.PLock.DebugDump(); got != table {
			t.Errorf("%s with mode 200 changed the holder table:\n%swas\n%s", name, got, table)
		}
	}

	revoke := revokeNBuf([]revokeItem{{pg: 2, wantNode: 2, wantMode: ModeS}, {pg: 2, wantNode: 2, wantMode: Mode(200)}})
	if _, err := tc.fabric.Call(1, ServiceRevoke, revoke); !errors.Is(err, common.ErrCorrupt) {
		t.Errorf("revoke batch with wantMode 200: err = %v, want ErrCorrupt", err)
	}
	if tc.pl[0].HeldMode(2) != ModeX || tc.pl[0].RevokePending(2) {
		t.Errorf("revoke batch with wantMode 200 reached the holder: mode %v, revoke pending %v",
			tc.pl[0].HeldMode(2), tc.pl[0].RevokePending(2))
	}
	if got := tc.srv.PLock.DebugDump(); got != table {
		t.Errorf("revoke batch with wantMode 200 changed the holder table:\n%swas\n%s", got, table)
	}
}

// retiredRelease and retiredRevoke are the single-page release (op 2: node,
// page, mode, LLSN) and revoke (op 3: wantNode, page, wantMode) a protocol
// v2 peer sent, as it encoded them. A release or revoke of one page is now
// a batch of one, and the two op numbers name nothing.
var (
	retiredRelease = wire.AppendU64(append(wire.AppendU64(wire.AppendU16([]byte{2}, 1), 2), byte(ModeX)), 9)
	retiredRevoke  = append(wire.AppendU64(wire.AppendU16([]byte{3}, 2), 2), byte(ModeS))
)

// TestRetiredOpsRefused: the single-page release and revoke of protocol v2
// are refused as naming no op, and neither the server's holder table nor
// the holder's own lock changes.
func TestRetiredOpsRefused(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	if err := tc.pl[0].Acquire(2, ModeX); err != nil {
		t.Fatal(err)
	}
	tc.pl[0].Release(2) // lazily retained: node 1 holds page 2 in X
	table := tc.srv.PLock.DebugDump()

	if _, err := tc.fabric.Call(common.PMFSNode, ServicePLock, retiredRelease); !errors.Is(err, common.ErrNoService) {
		t.Errorf("single release: err = %v, want ErrNoService", err)
	}
	if _, err := tc.fabric.Call(1, ServiceRevoke, retiredRevoke); !errors.Is(err, common.ErrNoService) {
		t.Errorf("single revoke: err = %v, want ErrNoService", err)
	}
	if tc.pl[0].HeldMode(2) != ModeX || tc.pl[0].RevokePending(2) {
		t.Errorf("a retired op reached the holder: mode %v, revoke pending %v",
			tc.pl[0].HeldMode(2), tc.pl[0].RevokePending(2))
	}
	if got := tc.srv.PLock.DebugDump(); got != table {
		t.Errorf("a retired op changed the holder table:\n%swas\n%s", got, table)
	}
}
