// Command mpserver hosts one PolarDB-MP primary as an OS process behind the
// wire session protocol. A seed process owns the shared substrate (PMFS +
// store) and optionally serves the fabric so satellite mpservers — full
// primaries in their own processes — can join the same cluster.
//
//	# seed: sessions on :7070, fabric for satellites on :7071, stats on :7072
//	$ mpserver -listen :7070 -fabric :7071 -http :7072 -data /var/lib/mp
//
//	# satellite: a second primary process joining the seed's fabric
//	$ mpserver -listen :7080 -join seedhost:7071
//
// Clients (mpshell -connect, mpbench -connect, mpgateway) speak the session
// protocol to -listen; GET /stats on -http returns the ClusterStats JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"polardbmp"
	"polardbmp/internal/core"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "session-protocol listener for clients and gateways")
	fabricAddr := flag.String("fabric", "", "fabric listener for satellite mpservers (seed mode)")
	join := flag.String("join", "", "a seed's -fabric address: run as a satellite primary of that cluster")
	data := flag.String("data", "", "data directory (seed mode; empty = in-memory)")
	httpAddr := flag.String("http", "", "HTTP listener serving GET /stats (ClusterStats JSON)")
	name := flag.String("name", "", "server name echoed in handshakes (default mpserver-<pid>)")
	cc := flag.String("cc", "", "concurrency-control engine: 2pl (default) or occ")
	selfHeal := flag.Bool("selfheal", false, "lease-based failure detection: survivors fence and take over a silent node")
	leaseRenew := flag.Duration("lease-renew", 0, "membership heartbeat cadence under -selfheal (0 = default 15ms)")
	leaseTimeout := flag.Duration("lease-timeout", 0, "silence before peers declare a node dead under -selfheal (0 = default 90ms)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("mpserver %s\n", polardbmp.Version)
		return
	}
	if *name == "" {
		*name = fmt.Sprintf("mpserver-%d", os.Getpid())
	}
	if *cc != "" && !core.ValidCC(*cc) {
		fmt.Fprintf(os.Stderr, "mpserver: unknown -cc engine %q (want 2pl or occ)\n", *cc)
		os.Exit(2)
	}
	cfg := core.Config{
		CC:                 *cc,
		SelfHeal:           *selfHeal,
		LeaseRenewInterval: *leaseRenew,
		LeaseTimeout:       *leaseTimeout,
	}
	if err := run(*listen, *fabricAddr, *join, *data, *httpAddr, *name, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mpserver:", err)
		os.Exit(1)
	}
}

func run(listen, fabricAddr, join, data, httpAddr, name string, cfg core.Config) error {
	nc := &wire.NetCounters{}
	var (
		c   *core.Cluster
		n   *core.Node
		err error
	)
	switch {
	case join != "":
		// Satellite: every cross-node interaction rides the fabric to the seed.
		if fabricAddr != "" || data != "" {
			return fmt.Errorf("-fabric and -data are seed-mode flags, incompatible with -join")
		}
		c, n, err = core.JoinRemote(cfg, join, nc)
		if err != nil {
			return err
		}
		fmt.Printf("mpserver %s: joined %s as node %d\n", polardbmp.Version, join, n.ID())
	case data != "":
		// Seed over a persistent store; a non-empty directory is recovered
		// before serving.
		store, err := storage.OpenDir(data, storage.Latency{})
		if err != nil {
			return err
		}
		existing := store.PageCount() > 0
		c = core.NewClusterWithStore(cfg, store)
		if existing {
			if err := c.RecoverAll(); err != nil {
				return fmt.Errorf("recovering %s: %w", data, err)
			}
		}
		if n, err = c.AddNode(); err != nil {
			return err
		}
	default:
		c = core.NewCluster(cfg)
		if n, err = c.AddNode(); err != nil {
			return err
		}
	}
	defer c.Close()
	c.SetNetStats(nc.Snapshot)

	if fabricAddr != "" {
		flis, err := net.Listen("tcp", fabricAddr)
		if err != nil {
			return err
		}
		fsrv := rdma.ServeFabric(c.Fabric(), flis, name, nc)
		defer fsrv.Close()
		fmt.Printf("mpserver %s: fabric for satellites on %s\n", polardbmp.Version, fsrv.Addr())
	}

	lis, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	be := netsrv.New(c, n)
	// Join info: what a new `mpserver -join` needs. A seed advertises its
	// own fabric listener; a satellite relays the address it joined through.
	ji := netsrv.JoinInfo{Cluster: name, FabricAddr: fabricAddr}
	if join != "" {
		ji.FabricAddr = join
	}
	be.SetJoinInfo(ji)
	srv := wire.ServeSessions(lis, name, be, nc)
	defer srv.Close()
	fmt.Printf("mpserver %s: node %d serving sessions on %s\n", polardbmp.Version, n.ID(), srv.Addr())

	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(c.Stats())
		})
		mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
			b, err := c.TopologyJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(b)
		})
		// POST /netfault injects connection-level faults on this process's
		// fabric links (JSON {"peer":"","mode":"partition|blackhole|heal",
		// "ms":5000}); GET lists the active rules. The chaos harness cuts and
		// heals specific peer pairs here while the cluster is under load.
		mux.HandleFunc("/netfault", func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				w.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(w).Encode(c.Fabric().Faults().Snapshot())
			case http.MethodPost:
				var req struct {
					Peer string `json:"peer"`
					Mode string `json:"mode"`
					Ms   int    `json:"ms"`
				}
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
					return
				}
				d := time.Duration(req.Ms) * time.Millisecond
				if err := c.Fabric().SetLinkFault(req.Peer, req.Mode, d); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				fmt.Fprintf(w, "%s %q for %v\n", req.Mode, req.Peer, d)
			default:
				http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
			}
		})
		// GET /goroutines reports the process's goroutine count — the chaos
		// harness's leak gate polls it on survivors after kills and heals.
		mux.HandleFunc("/goroutines", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "%d\n", runtime.NumGoroutine())
		})
		mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "mpserver %s\n", polardbmp.Version)
		})
		hlis, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: mux}
		go func() { _ = hs.Serve(hlis) }()
		defer hs.Close()
		fmt.Printf("mpserver %s: stats endpoint on http://%s/stats\n", polardbmp.Version, hlis.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("mpserver: %v, shutting down\n", s)
	return nil
}
