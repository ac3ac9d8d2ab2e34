package main

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/wire"
)

// refuseKth closes the k-th accepted connection before the handshake.
type refuseKth struct {
	net.Listener
	k, n atomic.Int32
}

func (l *refuseKth) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || l.n.Add(1) != l.k.Load() {
			return c, err
		}
		c.Close()
	}
}

// A run that asked for three clients and got two must not pass: connection 1
// is the setup session, so refusing the third refuses a worker.
func TestConnectFailsWhenAWorkerNeverConnects(t *testing.T) {
	db, err := netsrv.NewDB(core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Cluster.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refuse := &refuseKth{Listener: lis}
	srv := wire.ServeSessions(refuse, "bank", netsrv.New(db.Cluster, db.Cluster.Node(1)), &wire.NetCounters{})
	defer srv.Close()

	if code := runConnect(srv.Addr().String(), 300*time.Millisecond, 3); code != 0 {
		t.Fatalf("every client connected, exit code %d", code)
	}
	refuse.n.Store(0)
	refuse.k.Store(3)
	if code := runConnect(srv.Addr().String(), 300*time.Millisecond, 3); code == 0 {
		t.Fatal("a worker's dial was refused and the run still exited 0")
	}
}
