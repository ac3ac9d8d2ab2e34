package harness

// Process-level chaos (-proc): where every plan injects faults into an
// in-process cluster, this mode spawns a real deployment — a seed mpserver,
// two satellites joined over the socket fabric, an mpgateway balancing across
// all three — and breaks it the way production breaks: SIGKILL of a satellite
// under gateway load, a link partition injected at runtime (POST /netfault)
// that later heals, a replacement satellite rejoining. It keeps the bank
// rather than the keyed workload — here clients share rows on purpose — with
// a unique marker row per transfer, so every acknowledged commit is accounted
// for. The verdict is workload.Bank.Audit plus the rules in this file.

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

	"polardbmp/internal/core"
	"polardbmp/internal/gateway"
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
	procPartition    = 500 * time.Millisecond

	leakSlack = 16 // goroutines a survivor may keep over its pre-workload count
)

// procObs is what a -proc run recorded for procVerdict.
type procObs struct {
	epoch0    uint64
	afterKill core.MembershipStats // the seed's view once a takeover showed, or when the 20s wait gave up
	final     core.MembershipStats
	epochs    []uint64 // the seed's epoch, sampled through the run
	leaks     []leakReading
	sessions  int // the gateway's active sessions after the clients closed
}

// leakReading is one survivor's goroutine count before the workload's
// sessions existed and after they closed.
type leakReading struct {
	name            string
	port, base, now int
}

// settled: back near the baseline (an unreadable baseline compares to nothing).
func (l leakReading) settled() bool {
	return l.base <= 0 || (l.now > 0 && l.now <= l.base+leakSlack)
}

// resolution is how one ambiguous commit was settled.
type resolution struct {
	amb     workload.AmbiguousTransfer
	outcome uint8
	err     error
}

// foldAmbiguous settles the ledger Bank.Audit checks: markers of acked and
// resolved-committed transfers must be present, those of failed and
// resolved-aborted ones absent. A commit that stayed in doubt is a violation
// and joins neither list: nothing is guessed.
func foldAmbiguous(acked, failed []string, settled []resolution) (mustPresent, mustAbsent, violations []string) {
	mustPresent, mustAbsent = append(mustPresent, acked...), append(mustAbsent, failed...)
	for _, s := range settled {
		switch {
		case s.err != nil:
			violations = append(violations, fmt.Sprintf("ambiguous commit %v unresolved: %v", s.amb.G, s.err))
		case s.outcome == wire.TxStatusCommitted:
			mustPresent = append(mustPresent, s.amb.Marker)
		case s.outcome == wire.TxStatusAborted:
			mustAbsent = append(mustAbsent, s.amb.Marker)
		default:
			violations = append(violations, fmt.Sprintf("ambiguous commit %v resolved to unexpected outcome %d", s.amb.G, s.outcome))
		}
	}
	return mustPresent, mustAbsent, violations
}

// procVerdict holds the run to its own rules: exactly one survivor takeover,
// first try, under a monotone epoch; no goroutines or sessions left on the
// survivors once the clients closed.
func procVerdict(o procObs) (out []string) {
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	m := o.afterKill
	if m.Takeovers == 0 {
		fail("survivors never took over the killed satellite (takeovers=0 after 20s, takeover_err=%q)", m.TakeoverErr)
	}
	if m.Epoch <= o.epoch0 {
		fail("takeover did not bump the epoch (%d -> %d)", o.epoch0, m.Epoch)
	}
	if m.TakeoverFails > 0 {
		fail("takeover needed %d failed attempts (last: %q) — recovery must succeed first try", m.TakeoverFails, m.TakeoverErr)
	}
	last := o.epoch0
	for _, e := range o.epochs {
		if e < last {
			fail("epoch moved backwards: %d -> %d", last, e)
		}
		last = e
	}
	if o.final.Takeovers != 1 {
		fail("expected exactly one takeover, saw %d", o.final.Takeovers)
	}
	if o.final.Epoch < last {
		fail("final epoch %d below last observed %d", o.final.Epoch, last)
	}
	for _, l := range o.leaks {
		if !l.settled() {
			fail("%s leaked goroutines: baseline %d, now %d (slack %d)", l.name, l.base, l.now, leakSlack)
		}
	}
	if o.sessions > 1 { // the setup session may still be open
		fail("gateway still carries %d active sessions after clients closed", o.sessions)
	}
	return out
}

// procHarness owns the daemons of one -proc run and collects its violations.
type procHarness struct {
	w       io.Writer
	verbose bool
	bin     string // where mpserver and mpgateway are
	dir     string // scratch: the binaries if built here, daemon logs

	mu         sync.Mutex
	procs      map[string]*exec.Cmd
	violations []string
}

// runProc is the -proc entry point. A wedged harness is itself a violation.
func runProc(w io.Writer, o Options) ([]string, error) {
	dir, err := os.MkdirTemp("", "mpchaos-proc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h := &procHarness{w: w, verbose: o.Verbose, bin: o.BinDir, dir: dir, procs: make(map[string]*exec.Cmd)}
	done := make(chan error, 1)
	go func() { done <- h.run(o.Seed) }()
	select {
	case err = <-done:
	case <-expiry(o.Timeout):
		h.fail("harness wedged (no verdict within %v)", o.Timeout)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, cmd := range h.procs {
		_ = cmd.Process.Kill()
		if data, _ := os.ReadFile(filepath.Join(dir, name+".log")); len(data) > 0 && (err != nil || len(h.violations) > 0) {
			fmt.Fprintf(w, "---- %s log tail ----\n%s\n", name, data[max(0, len(data)-2000):])
		}
	}
	return h.violations, err
}

func (h *procHarness) fail(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// spawn starts a daemon listening on sess, its output in dir/name.log, and
// waits until it serves sessions.
func (h *procHarness) spawn(name, tool, sess string, args ...string) (*exec.Cmd, error) {
	lf, err := os.Create(filepath.Join(h.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(h.bin, tool), append(args, "-listen", sess)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() { _ = cmd.Wait(); lf.Close() }() // reap; the log file closes with the process
	h.mu.Lock()
	h.procs[name] = cmd
	h.mu.Unlock()
	if h.verbose {
		fmt.Fprintf(h.w, "proc: started %s (pid %d)\n", name, cmd.Process.Pid)
	}
	return cmd, waitSession(sess)
}

func (h *procHarness) run(seed int64) error {
	w := h.w
	if h.bin == "" {
		fmt.Fprintln(w, "proc: building mpserver and mpgateway")
		for _, tool := range []string{"mpserver", "mpgateway"} {
			if out, err := exec.Command("go", "build", "-o", filepath.Join(h.dir, tool), "./cmd/"+tool).CombinedOutput(); err != nil {
				return fmt.Errorf("building %s: %v\n%s", tool, err, out)
			}
		}
		h.bin = h.dir
	}
	ports, err := pickPorts(9)
	if err != nil {
		return err
	}
	addr := func(p int) string { return fmt.Sprintf("127.0.0.1:%d", p) }
	seedSess, seedFab, seedHTTP := addr(ports[0]), addr(ports[1]), ports[2]
	sat1Sess, sat1HTTP := addr(ports[3]), ports[4]
	sat2Sess, sat2HTTP := addr(ports[5]), ports[6]
	gwSess, gwHTTP := addr(ports[7]), ports[8]
	fmt.Fprintf(w, "proc: seed=%s sats=%s,%s gateway=%s\n", seedSess, sat1Sess, sat2Sess, gwSess)

	lease := []string{"-selfheal", "-lease-renew", procLeaseRenew.String(), "-lease-timeout", procLeaseTimeout.String()}
	if _, err := h.spawn("seed", "mpserver", seedSess, append(lease, "-name", "seed", "-fabric", seedFab, "-http", addr(seedHTTP))...); err != nil {
		return err
	}
	sat1, err := h.spawn("sat1", "mpserver", sat1Sess, append(lease, "-name", "sat1", "-join", seedFab, "-http", addr(sat1HTTP))...)
	if err != nil {
		return err
	}
	if _, err := h.spawn("sat2", "mpserver", sat2Sess, append(lease, "-name", "sat2", "-join", seedFab, "-http", addr(sat2HTTP))...); err != nil {
		return err
	}
	if _, err := h.spawn("gateway", "mpgateway", gwSess, "-http", addr(gwHTTP), "-probe", "100ms",
		"-backends", strings.Join([]string{seedSess, sat1Sess, sat2Sess}, ",")); err != nil {
		return err
	}

	// Schema + balances, through the gateway like any client.
	setup, err := wire.DialSession(gwSess, wire.SessionConfig{Name: "proc-setup"})
	if err != nil {
		return err
	}
	defer setup.Close()
	bank := &workload.Bank{Accounts: 32, Seed: 100}
	if err := bank.Load(workload.Remote{setup}); err != nil {
		return fmt.Errorf("loading the bank: %w", err)
	}

	// Leak-gate baselines: the cluster is up, no workload session exists.
	obs := procObs{epoch0: seedMembership(seedHTTP).Epoch, leaks: []leakReading{
		{name: "seed", port: seedHTTP}, {name: "sat2", port: sat2HTTP}, {name: "gateway", port: gwHTTP}}}
	for i := range obs.leaks {
		obs.leaks[i].base = readGoroutines(obs.leaks[i].port)
	}

	run := bank.Start(procWorkers, seed, true, func(id int) (wire.Backend, error) {
		cl, err := wire.DialSession(gwSess, wire.SessionConfig{Name: fmt.Sprintf("proc-worker-%d", id)})
		return wire.ClientBackend{Client: cl}, err
	})

	// The snapshot-sum checker rides along: every sum it manages to read is
	// a conservation check. What it writes is read after checker.Wait.
	stopChecker := make(chan struct{})
	var checker sync.WaitGroup
	var sumChecks, sumViolations int
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stopChecker:
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
				fmt.Fprintf(w, "    accounts: %s\n", detail)
			}
			if e := seedMembership(seedHTTP).Epoch; e != 0 {
				obs.epochs = append(obs.epochs, e)
			}
		}
	}()

	// Phase 1: warm-up under load.
	time.Sleep(1500 * time.Millisecond)
	preKill := run.Commits()

	// Phase 2: SIGKILL sat1 mid-load — the commits in flight through the
	// gateway to it become the ambiguous cohort.
	fmt.Fprintln(w, "proc: SIGKILL sat1 under load")
	_ = sat1.Process.Kill()
	if waitUntil(20*time.Second, 25*time.Millisecond, func() bool {
		obs.afterKill = seedMembership(seedHTTP)
		return obs.afterKill.Takeovers >= 1
	}) {
		fmt.Fprintf(w, "proc: takeover complete (epoch %d -> %d, fails=%d)\n", obs.epoch0, obs.afterKill.Epoch, obs.afterKill.TakeoverFails)
	}

	// Phase 3: partition the surviving satellite's fabric uplink, then heal.
	// Shorter than the lease timeout: service degrades, nobody is evicted.
	fmt.Fprintf(w, "proc: partitioning sat2's uplink for %dms, then healing\n", procPartition.Milliseconds())
	if err := postNetfault(sat2HTTP, "partition", procPartition); err != nil {
		h.fail("installing netfault: %v", err)
	}
	time.Sleep(procPartition)
	if err := postNetfault(sat2HTTP, "heal", 0); err != nil {
		h.fail("healing netfault: %v", err)
	}
	// Progress gate: commits must keep flowing after the heal.
	healBase := run.Commits()
	if !waitUntil(10*time.Second, 25*time.Millisecond, func() bool { return run.Commits() >= healBase+20 }) {
		h.fail("workload made no progress after the partition healed (%d commits since)", run.Commits()-healBase)
		fmt.Fprintln(w, "  recent workload errors:")
		run.DumpErrs()
		for _, l := range obs.leaks {
			body, err := httpGet(l.port, "/stats")
			fmt.Fprintf(w, "  %s stats: %s %v\n", l.name, body, err)
		}
	}

	// Phase 4: a replacement satellite rejoins on the killed one's session
	// port, so the gateway's prober re-admits the backend it lost.
	fmt.Fprintln(w, "proc: rejoining a replacement satellite")
	if _, err := h.spawn("sat1b", "mpserver", sat1Sess, append(lease, "-name", "sat1b", "-join", seedFab)...); err != nil {
		h.fail("replacement satellite never served: %v", err)
	}
	var gw gateway.Stats
	if !waitUntil(10*time.Second, 100*time.Millisecond, func() bool {
		stats(gwHTTP, &gw)
		for _, b := range gw.Backends {
			if b.Addr == sat1Sess && b.Healthy {
				return true
			}
		}
		return false
	}) {
		h.fail("gateway never re-admitted the rejoined backend")
	}

	// Phase 5: let the full-strength cluster carry load again, then stop.
	time.Sleep(1500 * time.Millisecond)
	run.Stop()
	close(stopChecker)
	checker.Wait()
	for _, err := range run.Unconnected {
		h.fail("the workload ran short of a client: %v", err)
	}
	fmt.Fprintf(w, "workload: %d attempts, %d acked commits (%d before the kill), %d ambiguous, %d failed\n",
		run.Attempts, len(run.Acked), preKill, len(run.Ambiguous), len(run.Failed))

	// Every ambiguous commit is settled through OpTxStatus, never guessed.
	settled := make([]resolution, len(run.Ambiguous))
	resolver, err := wire.DialSession(gwSess, wire.SessionConfig{Name: "proc-resolver"})
	if err != nil {
		h.fail("dialing resolver: %v", err)
	}
	for i, amb := range run.Ambiguous {
		settled[i] = resolution{amb: amb, err: err}
		if err == nil {
			settled[i].outcome, _, settled[i].err = resolver.ResolveTx(amb.G, 15*time.Second)
		}
	}
	if err == nil {
		resolver.Close() // before the gateway's sessions are counted
	}
	mustPresent, mustAbsent, violations := foldAmbiguous(run.Acked, run.Failed, settled)
	fmt.Fprintf(w, "ambiguity: %d resolved committed, %d resolved aborted, 0 guessed\n",
		len(mustPresent)-len(run.Acked), len(mustAbsent)-len(run.Failed))

	// Final account: one snapshot covering balances and markers, audited.
	var balances map[int]int
	var markers map[string]string
	if waitUntil(5*time.Second, 100*time.Millisecond, func() bool {
		balances, markers, err = bank.FinalState(wire.ClientBackend{Client: setup})
		return err == nil
	}) {
		violations = append(violations, bank.Audit(balances, markers, mustPresent, mustAbsent)...)
	} else {
		h.fail("final state unreadable: %v", err)
	}
	fmt.Fprintf(w, "durability: %d markers checked present, %d checked absent, %d snapshot sums (%d violations)\n",
		len(mustPresent), len(mustAbsent), sumChecks, sumViolations)

	// Leak gate: the survivors' goroutine counts settle back to baseline.
	for i := range obs.leaks {
		l := &obs.leaks[i]
		waitUntil(10*time.Second, 200*time.Millisecond, func() bool {
			l.now = readGoroutines(l.port)
			return l.settled()
		})
		if h.verbose {
			fmt.Fprintf(w, "proc: %s goroutines %d -> %d\n", l.name, l.base, l.now)
		}
	}
	stats(gwHTTP, &gw)
	for _, b := range gw.Backends {
		obs.sessions += b.Active
	}
	obs.final = seedMembership(seedHTTP)
	for _, v := range append(violations, procVerdict(obs)...) {
		h.fail("%s", v)
	}
	return nil
}

func httpGet(port int, path string) ([]byte, error) {
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d%s", port, path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// stats decodes a daemon's /stats document into v, left as it is while the
// daemon is unreachable: the seed's is a core.ClusterStats, mpgateway's a
// gateway.Stats.
func stats(port int, v any) {
	if body, err := httpGet(port, "/stats"); err == nil {
		_ = json.Unmarshal(body, v)
	}
}

func seedMembership(port int) core.MembershipStats {
	var s core.ClusterStats
	stats(port, &s)
	return s.Membership
}

func readGoroutines(port int) int {
	body, _ := httpGet(port, "/goroutines")
	n, _ := strconv.Atoi(strings.TrimSpace(string(body)))
	return n
}

func postNetfault(port int, mode string, d time.Duration) error {
	body := fmt.Sprintf(`{"peer":"","mode":%q,"ms":%d}`, mode, d.Milliseconds())
	resp, err := http.Post(fmt.Sprintf("http://127.0.0.1:%d/netfault", port), "application/json", strings.NewReader(body))
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

// pickPorts reserves n distinct loopback ports by binding ephemeral
// listeners, then releasing them. Another process can take one before the
// daemon binds it; waitSession catches that and crash_smoke.sh retries.
func pickPorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitSession waits up to 10s for addr to serve the session protocol.
func waitSession(addr string) error {
	var err error
	if !waitUntil(10*time.Second, 100*time.Millisecond, func() bool {
		var cl *wire.Client
		if cl, err = wire.DialSession(addr, wire.SessionConfig{Name: "proc-probe", DialTimeout: time.Second}); err == nil {
			err = cl.Ping()
			cl.Close()
		}
		return err == nil
	}) {
		return fmt.Errorf("%s not serving after 10s: %w", addr, err)
	}
	return nil
}
