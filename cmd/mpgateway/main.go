// Command mpgateway load-balances wire session-protocol clients across the
// primaries of a multi-process PolarDB-MP cluster (package internal/gateway
// holds the relay, the backend health and the session migration).
//
//	$ mpgateway -listen :7090 -backends host1:7070,host2:7080 -http :7091
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
	"strings"
	"syscall"
	"time"

	"polardbmp"
	"polardbmp/internal/gateway"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7090", "session-protocol listener for clients")
	backends := flag.String("backends", "", "comma-separated mpserver session addresses (required)")
	httpAddr := flag.String("http", "", "HTTP listener serving GET /stats (gateway + backend health JSON)")
	probe := flag.Duration("probe", time.Second, "backend health-probe interval")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("mpgateway %s\n", polardbmp.Version)
		return
	}
	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "mpgateway: -backends is required")
		os.Exit(2)
	}
	if err := run(*listen, addrs, *httpAddr, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "mpgateway:", err)
		os.Exit(1)
	}
}

func run(listen string, addrs []string, httpAddr string, probe time.Duration) error {
	gw := gateway.New(addrs, probe)
	lis, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	go gw.Serve(lis)
	fmt.Printf("mpgateway %s: %d backends, serving sessions on %s\n",
		polardbmp.Version, len(addrs), lis.Addr())

	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(gw.Stats())
		})
		// GET /goroutines: the chaos harness's leak gate polls this while
		// killing backends under the gateway.
		mux.HandleFunc("/goroutines", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "%d\n", runtime.NumGoroutine())
		})
		mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "mpgateway %s\n", polardbmp.Version)
		})
		hlis, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: mux}
		go func() { _ = hs.Serve(hlis) }()
		defer hs.Close()
		fmt.Printf("mpgateway %s: stats endpoint on http://%s/stats\n", polardbmp.Version, hlis.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("mpgateway: %v, shutting down\n", s)
	_ = lis.Close()
	gw.Close()
	return nil
}
