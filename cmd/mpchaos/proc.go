package main

// Process-level chaos (-proc): where every other mpchaos plan injects faults
// into an in-process cluster, this mode spawns a real multi-process
// deployment — a seed mpserver, two satellite mpservers joined over the
// socket fabric, and an mpgateway balancing across all three — then breaks
// it the way production breaks: SIGKILL of a satellite under gateway load, a
// runtime-injected link partition (POST /netfault) that later heals, and a
// replacement satellite rejoining the cluster. Throughout, bank-transfer
// workers drive money-conservation traffic through the gateway, every
// transaction also inserting a unique marker row so each acknowledged commit
// can be individually accounted for afterwards.
//
// The verdict asserts the ISSUE's process-level invariants:
//   - exactly one survivor takeover, epochs monotone, zero takeover failures
//   - money conserved on every snapshot sum and on the final sum
//   - zero lost committed transactions (every acked marker present)
//   - zero unresolved ambiguous commits: every ErrCommitAmbiguous is
//     settled through ResolveTx/OpTxStatus — committed markers present,
//     aborted markers absent, nothing guessed
//   - no leaked goroutines or sessions on the survivors once clients close

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"polardbmp/internal/wire"
	"polardbmp/internal/workload"
)

const (
	procWorkers = 6

	// Lease cadence for the spawned daemons: long enough that the injected
	// 500ms partition (plus redial backoff) never costs the partitioned
	// satellite its lease, short enough that the SIGKILL is detected fast.
	procLeaseRenew   = 25 * time.Millisecond
	procLeaseTimeout = 2 * time.Second
	procPartitionMs  = 500
)

// runProc is the -proc entrypoint; returns the process exit code.
func runProc(binDir string, seed int64, timeout time.Duration, verbose bool) int {
	h := &procHarness{verbose: verbose}
	defer h.stopAll()

	// Watchdog: a wedged harness is itself an invariant violation.
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	done := make(chan int, 1)
	go func() { done <- h.run(binDir, seed) }()
	select {
	case code := <-done:
		return code
	case <-time.After(timeout):
		fmt.Printf("  INVARIANT VIOLATED: harness wedged (no verdict within %v)\n", timeout)
		h.dumpLogs()
		fmt.Println("verdict: FAIL")
		return 1
	}
}

type procHarness struct {
	verbose bool
	dir     string // scratch: binaries (if built here) and daemon logs

	mu    sync.Mutex
	procs []*managedProc

	failed bool
}

type managedProc struct {
	name string
	cmd  *exec.Cmd
	log  string
}

func (h *procHarness) fail(format string, args ...any) {
	h.failed = true
	fmt.Printf("  INVARIANT VIOLATED: %s\n", fmt.Sprintf(format, args...))
}

func (h *procHarness) run(binDir string, seed int64) int {
	var err error
	h.dir, err = os.MkdirTemp("", "mpchaos-proc-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(h.dir)

	if binDir == "" {
		fmt.Println("proc: building mpserver and mpgateway")
		for _, tool := range []string{"mpserver", "mpgateway"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(h.dir, tool), "./cmd/"+tool).CombinedOutput()
			if err != nil {
				fmt.Fprintf(os.Stderr, "building %s: %v\n%s", tool, err, out)
				return 2
			}
		}
		binDir = h.dir
	}

	ports, err := pickPorts(9)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	seedSess, seedFab, seedHTTP := ports[0], ports[1], ports[2]
	sat1Sess, sat1HTTP := ports[3], ports[4]
	sat2Sess, sat2HTTP := ports[5], ports[6]
	gwSess, gwHTTP := ports[7], ports[8]
	addr := func(p int) string { return fmt.Sprintf("127.0.0.1:%d", p) }

	lease := []string{
		"-selfheal",
		"-lease-renew", procLeaseRenew.String(),
		"-lease-timeout", procLeaseTimeout.String(),
	}
	fmt.Printf("proc: seed=%s sats=%s,%s gateway=%s\n",
		addr(seedSess), addr(sat1Sess), addr(sat2Sess), addr(gwSess))

	server := filepath.Join(binDir, "mpserver")
	if _, err := h.spawn("seed", server, append([]string{
		"-listen", addr(seedSess), "-fabric", addr(seedFab), "-http", addr(seedHTTP),
		"-name", "seed"}, lease...)...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := waitSession(addr(seedSess), 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "seed never came up:", err)
		h.dumpLogs()
		return 2
	}
	sat1, err := h.spawn("sat1", server, append([]string{
		"-listen", addr(sat1Sess), "-join", addr(seedFab), "-http", addr(sat1HTTP),
		"-name", "sat1"}, lease...)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if _, err := h.spawn("sat2", server, append([]string{
		"-listen", addr(sat2Sess), "-join", addr(seedFab), "-http", addr(sat2HTTP),
		"-name", "sat2"}, lease...)...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, a := range []string{addr(sat1Sess), addr(sat2Sess)} {
		if err := waitSession(a, 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "satellite never came up:", err)
			h.dumpLogs()
			return 2
		}
	}
	if _, err := h.spawn("gateway", filepath.Join(binDir, "mpgateway"),
		"-listen", addr(gwSess), "-http", addr(gwHTTP),
		"-backends", strings.Join([]string{addr(seedSess), addr(sat1Sess), addr(sat2Sess)}, ","),
		"-probe", "100ms"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := waitSession(addr(gwSess), 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "gateway never came up:", err)
		h.dumpLogs()
		return 2
	}

	// Schema + balances, through the gateway like any client.
	setup, err := wire.DialSession(addr(gwSess), wire.SessionConfig{Name: "proc-setup"})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer setup.Close()
	bank := &workload.Bank{Accounts: 32, Seed: 100}
	if err := bank.Load(workload.Remote{setup}); err != nil {
		fmt.Fprintln(os.Stderr, "loading the bank:", err)
		return 2
	}

	// Leak-gate baselines: after the cluster is fully up, before workload
	// sessions exist.
	baseSeedG := readGoroutines(seedHTTP)
	baseSat2G := readGoroutines(sat2HTTP)
	baseGwG := readGoroutines(gwHTTP)

	epoch0 := h.seedMembership(seedHTTP).Epoch
	lastEpoch := epoch0

	// Workload: procWorkers independent sessions through the gateway.
	w := bank.Start(procWorkers, seed, true, func(id int) (wire.Backend, error) {
		cl, err := wire.DialSession(addr(gwSess), wire.SessionConfig{Name: fmt.Sprintf("proc-worker-%d", id)})
		return wire.ClientBackend{Client: cl}, err
	})

	// Snapshot-sum checker rides along; every successful sum is an
	// invariant check, and epochs observed on the way must be monotone.
	checkerStop := make(chan struct{})
	var checkerWG sync.WaitGroup
	var sumChecks, sumViolations int
	checkerWG.Add(1)
	go func() {
		defer checkerWG.Done()
		for {
			select {
			case <-checkerStop:
				return
			case <-time.After(200 * time.Millisecond):
			}
			got, detail, err := bank.Sum(wire.ClientBackend{Client: setup})
			if err != nil {
				continue // transient mid-chaos; the final sum decides
			}
			sumChecks++
			if want := bank.Accounts * bank.Seed; got != want {
				sumViolations++
				h.fail("snapshot sum %d, want %d", got, want)
				fmt.Printf("    accounts: %s\n", detail)
			}
			if m := h.seedMembership(seedHTTP); m.Epoch != 0 {
				if m.Epoch < lastEpoch {
					h.fail("epoch moved backwards: %d -> %d", lastEpoch, m.Epoch)
				}
				lastEpoch = m.Epoch
			}
		}
	}()

	// Phase 1: warm-up under load.
	time.Sleep(1500 * time.Millisecond)
	preKill := w.Commits()

	// Phase 2: SIGKILL sat1 mid-load — in-flight commits through the
	// gateway to it become the ambiguous cohort.
	fmt.Println("proc: SIGKILL sat1 under load")
	_ = sat1.cmd.Process.Kill()

	takeoverDeadline := time.Now().Add(20 * time.Second)
	var m seedMembershipStats
	for {
		m = h.seedMembership(seedHTTP)
		if m.Takeovers >= 1 {
			break
		}
		if time.Now().After(takeoverDeadline) {
			h.fail("survivors never took over the killed satellite (takeovers=0 after 20s, takeover_err=%q)", m.TakeoverErr)
			h.dumpLogs()
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if m.Takeovers >= 1 {
		fmt.Printf("proc: takeover complete (epoch %d -> %d, fails=%d)\n", epoch0, m.Epoch, m.TakeoverFails)
	}
	if m.Epoch <= epoch0 {
		h.fail("takeover did not bump the epoch (%d -> %d)", epoch0, m.Epoch)
	}
	if m.TakeoverFails > 0 {
		h.fail("takeover needed %d failed attempts (last: %q) — recovery must succeed first try", m.TakeoverFails, m.TakeoverErr)
	}

	// Phase 3: partition the surviving satellite's fabric uplink briefly,
	// then heal. Shorter than the lease timeout: service degrades
	// transiently but nobody else is evicted.
	fmt.Printf("proc: partitioning sat2's uplink for %dms, then healing\n", procPartitionMs)
	if err := postNetfault(sat2HTTP, "", "partition", procPartitionMs); err != nil {
		h.fail("installing netfault: %v", err)
	}
	time.Sleep(procPartitionMs * time.Millisecond)
	if err := postNetfault(sat2HTTP, "", "heal", 0); err != nil {
		h.fail("healing netfault: %v", err)
	}

	// Progress gate: commits must keep flowing after the heal.
	healWait := time.Now().Add(10 * time.Second)
	healBase := w.Commits()
	for w.Commits() < healBase+20 {
		if time.Now().After(healWait) {
			h.fail("workload made no progress after the partition healed (%d commits since)", w.Commits()-healBase)
			fmt.Println("  recent workload errors:")
			w.DumpErrs()
			h.dumpRawStats(gwHTTP, "gateway")
			h.dumpRawStats(seedHTTP, "seed")
			h.dumpRawStats(sat2HTTP, "sat2")
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 4: a replacement satellite rejoins on the killed one's session
	// port, so the gateway's prober re-admits the backend it lost.
	fmt.Println("proc: rejoining a replacement satellite")
	if _, err := h.spawn("sat1b", server, append([]string{
		"-listen", addr(sat1Sess), "-join", addr(seedFab), "-name", "sat1b"}, lease...)...); err != nil {
		h.fail("respawning satellite: %v", err)
	} else if err := waitSession(addr(sat1Sess), 10*time.Second); err != nil {
		h.fail("replacement satellite never served: %v", err)
	}
	rejoinDeadline := time.Now().Add(10 * time.Second)
	for {
		if h.gatewayHealthy(gwHTTP, addr(sat1Sess)) {
			break
		}
		if time.Now().After(rejoinDeadline) {
			h.fail("gateway never re-admitted the rejoined backend")
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Phase 5: let the full-strength cluster carry load again, then stop.
	time.Sleep(1500 * time.Millisecond)
	w.Stop()
	close(checkerStop)
	checkerWG.Wait()
	for _, err := range w.Unconnected {
		h.fail("the workload ran short of a client: %v", err)
	}

	fmt.Printf("workload: %d attempts, %d acked commits (%d before the kill), %d ambiguous, %d failed\n",
		w.Attempts, len(w.Acked), preKill, len(w.Ambiguous), len(w.Failed))

	// Resolution: every ambiguous commit is settled through the wire
	// protocol — OpTxStatus via ResolveTx — never guessed.
	resolver, err := wire.DialSession(addr(gwSess), wire.SessionConfig{Name: "proc-resolver"})
	if err != nil {
		h.fail("dialing resolver: %v", err)
	}
	mustPresent, mustAbsent := w.Acked, w.Failed
	resolvedC, resolvedA := 0, 0
	for _, amb := range w.Ambiguous {
		if resolver == nil {
			h.fail("ambiguous commit %v unresolvable: no resolver session", amb.G)
			continue
		}
		outcome, _, err := resolver.ResolveTx(amb.G, 15*time.Second)
		switch {
		case err != nil:
			h.fail("ambiguous commit %v unresolved: %v", amb.G, err)
		case outcome == wire.TxStatusCommitted:
			resolvedC++
			mustPresent = append(mustPresent, amb.Marker)
		case outcome == wire.TxStatusAborted:
			resolvedA++
			mustAbsent = append(mustAbsent, amb.Marker)
		default:
			h.fail("ambiguous commit %v resolved to unexpected outcome %d", amb.G, outcome)
		}
	}
	if resolver != nil {
		resolver.Close()
	}
	fmt.Printf("ambiguity: %d resolved committed, %d resolved aborted, 0 guessed\n", resolvedC, resolvedA)

	// Final account: one snapshot covering balances and markers, audited
	// for the sum, each marker's fate, and the per-account replay.
	balances, markers, err := bank.FinalState(wire.ClientBackend{Client: setup})
	for retry := 0; err != nil && retry < 50; retry++ {
		time.Sleep(100 * time.Millisecond)
		balances, markers, err = bank.FinalState(wire.ClientBackend{Client: setup})
	}
	if err != nil {
		h.fail("final state unreadable: %v", err)
	} else {
		for _, v := range bank.Audit(balances, markers, mustPresent, mustAbsent) {
			h.fail("%s", v)
		}
	}
	fmt.Printf("durability: %d markers checked present, %d checked absent, %d snapshot sums (%d violations)\n",
		len(mustPresent), len(mustAbsent), sumChecks, sumViolations)

	// Leak gate: with every workload session closed, the survivors'
	// goroutine counts must settle back near their pre-workload baselines,
	// and the gateway must report zero active sessions.
	h.leakGate("seed", seedHTTP, baseSeedG)
	h.leakGate("sat2", sat2HTTP, baseSat2G)
	h.leakGate("gateway", gwHTTP, baseGwG)
	if n, err := gatewayActiveSessions(gwHTTP); err == nil && n > 1 { // setup session may still be open
		h.fail("gateway still carries %d active sessions after clients closed", n)
	}

	mEnd := h.seedMembership(seedHTTP)
	if mEnd.Takeovers != 1 {
		h.fail("expected exactly one takeover, saw %d", mEnd.Takeovers)
	}
	if mEnd.Epoch < lastEpoch {
		h.fail("final epoch %d below last observed %d", mEnd.Epoch, lastEpoch)
	}

	if h.failed {
		h.dumpLogs()
		fmt.Println("verdict: FAIL")
		return 1
	}
	fmt.Println("verdict: PASS")
	return 0
}

// --- process management ------------------------------------------------------

func (h *procHarness) spawn(name, bin string, args ...string) (*managedProc, error) {
	logPath := filepath.Join(h.dir, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	// Reap without blocking stopAll; the log file closes with the process.
	go func() { _ = cmd.Wait(); lf.Close() }()
	p := &managedProc{name: name, cmd: cmd, log: logPath}
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	if h.verbose {
		fmt.Printf("proc: started %s (pid %d)\n", name, cmd.Process.Pid)
	}
	return p, nil
}

func (h *procHarness) stopAll() {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	}
}

func (h *procHarness) dumpLogs() {
	h.mu.Lock()
	procs := append([]*managedProc(nil), h.procs...)
	h.mu.Unlock()
	for _, p := range procs {
		data, err := os.ReadFile(p.log)
		if err != nil || len(data) == 0 {
			continue
		}
		const tail = 2000
		if len(data) > tail {
			data = data[len(data)-tail:]
		}
		fmt.Printf("---- %s log tail ----\n%s\n", p.name, data)
	}
}

// --- HTTP admin surface ------------------------------------------------------

type seedMembershipStats struct {
	Epoch         uint64 `json:"epoch"`
	Takeovers     int64  `json:"takeovers"`
	TakeoverFails int64  `json:"takeover_fails"`
	TakeoverErr   string `json:"takeover_err"`
}

func (h *procHarness) seedMembership(port int) seedMembershipStats {
	var s struct {
		Membership seedMembershipStats `json:"membership"`
	}
	if err := httpJSON(port, "/stats", &s); err != nil {
		return seedMembershipStats{}
	}
	return s.Membership
}

func (h *procHarness) gatewayHealthy(port int, backend string) bool {
	var s struct {
		Backends []struct {
			Addr    string `json:"addr"`
			Healthy bool   `json:"healthy"`
		} `json:"backends"`
	}
	if err := httpJSON(port, "/stats", &s); err != nil {
		return false
	}
	for _, b := range s.Backends {
		if b.Addr == backend && b.Healthy {
			return true
		}
	}
	return false
}

func gatewayActiveSessions(port int) (int, error) {
	var s struct {
		Backends []struct {
			Active int `json:"active_sessions"`
		} `json:"backends"`
	}
	if err := httpJSON(port, "/stats", &s); err != nil {
		return 0, err
	}
	n := 0
	for _, b := range s.Backends {
		n += b.Active
	}
	return n, nil
}

func (h *procHarness) leakGate(name string, port, base int) {
	if base <= 0 {
		return // baseline unreadable; nothing to compare
	}
	const slack = 16
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := readGoroutines(port)
		if now > 0 && now <= base+slack {
			if h.verbose {
				fmt.Printf("proc: %s goroutines %d -> %d (ok)\n", name, base, now)
			}
			return
		}
		if time.Now().After(deadline) {
			h.fail("%s leaked goroutines: baseline %d, now %d (slack %d)", name, base, now, slack)
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// dumpRawStats prints a node's /stats verbatim — stall diagnostics only.
func (h *procHarness) dumpRawStats(port int, name string) {
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/stats", port))
	if err != nil {
		fmt.Printf("  %s stats: %v\n", name, err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Printf("  %s stats: %s\n", name, body)
}

func httpJSON(port int, path string, v any) error {
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d%s", port, path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func readGoroutines(port int) int {
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/goroutines", port))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	n, _ := strconv.Atoi(strings.TrimSpace(string(body)))
	return n
}

func postNetfault(port int, peer, mode string, ms int) error {
	body := fmt.Sprintf(`{"peer":%q,"mode":%q,"ms":%d}`, peer, mode, ms)
	resp, err := http.Post(fmt.Sprintf("http://127.0.0.1:%d/netfault", port),
		"application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("netfault %s: %s: %s", mode, resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// --- ports -------------------------------------------------------------------

// pickPorts reserves n distinct loopback ports by binding ephemeral
// listeners, then releasing them. The tiny window between release and the
// daemon's own bind can race another process; the caller's wait-for-ready
// catches that, and scripts/lib.sh retries the whole harness on a fresh set.
func pickPorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func waitSession(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		cl, err := wire.DialSession(addr, wire.SessionConfig{Name: "proc-probe", DialTimeout: time.Second})
		if err == nil {
			err = cl.Ping()
			cl.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving after %v: %w", addr, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
