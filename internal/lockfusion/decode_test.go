package lockfusion

import (
	"errors"
	"testing"

	"polardbmp/internal/common"
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
		"release": plockReleaseBuf(1, relPage{pg: 2, mode: Mode(200), llsn: 9}),
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
