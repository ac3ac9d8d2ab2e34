package main

// Deployed-cluster plumbing: build the daemons, spawn them on loopback with
// kernel-assigned ports, read their /stats and /proc accounting, and tear
// everything down. Everything a run leaves on disk lives under buildDir in
// the current directory, so a run reads and writes only its own checkout.

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"polardbmp/internal/core"
)

const buildDir = ".bench_build"

// buildDaemons compiles mpserver and mpgateway from the surrounding module
// into buildDir/bin. `go build` leaves an up-to-date target alone, so the
// call is cheap after the first run in a checkout and never serves a stale
// binary after the engine changed.
func buildDaemons() (binDir string, err error) {
	binDir, err = filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	// A trailing separator makes -o a directory: one binary per package.
	out, err := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/mpserver", "./cmd/mpgateway").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building the daemons: %v\n%s", err, out)
	}
	return binDir, nil
}

// live tracks what must not outlive the harness: running deployments and
// scratch directories. killLive is the SIGINT/SIGTERM path.
var live = struct {
	mu   sync.Mutex
	deps map[*deployment]bool
	dirs map[string]bool
}{deps: map[*deployment]bool{}, dirs: map[string]bool{}}

func killLive() {
	live.mu.Lock()
	deps, dirs := live.deps, live.dirs
	live.deps, live.dirs = map[*deployment]bool{}, map[string]bool{}
	live.mu.Unlock()
	for d := range deps {
		d.stopping.Store(true)
		for _, dm := range d.daemonList() {
			_ = dm.cmd.Process.Kill() // no time for a graceful exit on this path
		}
		d.stop()
	}
	for dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}

// newRunDir creates a fresh scratch directory for one cluster's data.
func newRunDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err == nil {
		live.mu.Lock()
		live.dirs[dir] = true
		live.mu.Unlock()
	}
	return dir, err
}

func removeRunDir(dir string) {
	_ = os.RemoveAll(dir)
	live.mu.Lock()
	delete(live.dirs, dir)
	live.mu.Unlock()
}

// tailBuffer keeps the last lines a daemon printed and lets the harness wait
// for the line announcing a listener address.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
	part  string
}

const tailKeep = 40

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.part + string(p)
	for {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			break
		}
		t.lines = append(t.lines, s[:i])
		s = s[i+1:]
	}
	t.part = s
	if n := len(t.lines); n > tailKeep {
		t.lines = append(t.lines[:0], t.lines[n-tailKeep:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) find(re *regexp.Regexp) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lines {
		if m := re.FindStringSubmatch(l); m != nil {
			return m[1]
		}
	}
	return ""
}

func (t *tailBuffer) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// daemon is one spawned mpserver or mpgateway.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	out    *tailBuffer
	exited chan struct{} // closed once Wait returned
	sess   string        // session-protocol address
	http   string        // /stats address
	fabric string        // seed only
}

var (
	reSess   = regexp.MustCompile(`serving sessions on (\S+)`)
	reFabric = regexp.MustCompile(`fabric for satellites on (\S+)`)
	reHTTP   = regexp.MustCompile(`stats endpoint on http://(\S+)/stats`)
)

// deployment is a running set of daemons plus the scratch directory holding
// the seed's data. dead is closed when any daemon exits before stop().
type deployment struct {
	dir     string
	dataDir string
	seed    *daemon
	sat     *daemon
	gateway *daemon // nil on the direct topology

	mu       sync.Mutex
	daemons  []*daemon
	stopping atomic.Bool
	dead     chan struct{}
	deadOnce sync.Once
	deadOne  *daemon // the first daemon that exited on its own
}

// newDeployment registers an empty deployment whose daemons will keep their
// data under dir ("" = none); stop() ends it.
func newDeployment(dir string) *deployment {
	d := &deployment{dir: dir, dataDir: filepath.Join(dir, "data"), dead: make(chan struct{})}
	live.mu.Lock()
	live.deps[d] = true
	live.mu.Unlock()
	return d
}

func (d *deployment) spawn(name, bin string, args ...string) (*daemon, error) {
	dm := &daemon{name: name, out: &tailBuffer{}, exited: make(chan struct{})}
	dm.cmd = exec.Command(bin, args...)
	dm.cmd.Stdout = dm.out
	dm.cmd.Stderr = dm.out
	// Own process group: a terminal ^C reaches the harness only, which then
	// stops the daemons itself and can still report. Pdeathsig is the
	// backstop for a harness that is killed outright.
	dm.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := dm.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d.mu.Lock()
	d.daemons = append(d.daemons, dm)
	d.mu.Unlock()
	go func() {
		_ = dm.cmd.Wait()
		close(dm.exited)
		if !d.stopping.Load() {
			d.deadOnce.Do(func() {
				d.deadOne = dm
				close(d.dead)
			})
		}
	}()
	return dm, nil
}

// await blocks until the daemon printed a line matching re and returns the
// captured address.
func (d *deployment) await(dm *daemon, re *regexp.Regexp) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if a := dm.out.find(re); a != "" {
			return a, nil
		}
		select {
		case <-dm.exited:
			return "", fmt.Errorf("%s exited during start-up:\n%s", dm.name, dm.out.tail())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("%s never announced %q:\n%s", dm.name, re, dm.out.tail())
}

// startDeployment spawns seed + one satellite, and a gateway in front of
// both when withGateway is set. Ports are kernel-assigned (":0") and read
// back from the daemons' own start-up lines.
func startDeployment(binDir string, withGateway bool) (d *deployment, err error) {
	dir, err := newRunDir()
	if err != nil {
		return nil, err
	}
	d = newDeployment(dir)
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	server := filepath.Join(binDir, "mpserver")
	const any = "127.0.0.1:0"
	if d.seed, err = d.spawn("seed", server, "-name", "seed", "-listen", any, "-fabric", any, "-http", any, "-data", d.dataDir); err != nil {
		return d, err
	}
	if d.seed.fabric, err = d.await(d.seed, reFabric); err != nil {
		return d, err
	}
	if d.sat, err = d.spawn("sat", server, "-name", "sat", "-listen", any, "-http", any, "-join", d.seed.fabric); err != nil {
		return d, err
	}
	for _, dm := range []*daemon{d.seed, d.sat} {
		if dm.sess, err = d.await(dm, reSess); err != nil {
			return d, err
		}
		if dm.http, err = d.await(dm, reHTTP); err != nil {
			return d, err
		}
	}
	if withGateway {
		if d.gateway, err = d.spawn("gateway", filepath.Join(binDir, "mpgateway"),
			"-listen", any, "-http", any, "-probe", "100ms",
			"-backends", d.seed.sess+","+d.sat.sess); err != nil {
			return d, err
		}
		if d.gateway.sess, err = d.await(d.gateway, reSess); err != nil {
			return d, err
		}
		if d.gateway.http, err = d.await(d.gateway, reHTTP); err != nil {
			return d, err
		}
	}
	return d, nil
}

func (d *deployment) daemonList() []*daemon {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*daemon(nil), d.daemons...)
}

// stop terminates every daemon, waits for each to end, and removes the
// scratch directory. Safe to call more than once.
func (d *deployment) stop() {
	d.stopping.Store(true)
	daemons := d.daemonList()
	// Front to back, so the gateway never sees a backend vanish first.
	for i := len(daemons) - 1; i >= 0; i-- {
		dm := daemons[i]
		_ = dm.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-dm.exited:
		case <-time.After(3 * time.Second):
			_ = dm.cmd.Process.Kill()
			<-dm.exited
		}
	}
	if d.dir != "" {
		removeRunDir(d.dir)
	}
	live.mu.Lock()
	delete(live.deps, d)
	live.mu.Unlock()
}

// failure describes the daemon that died, with its last output. Call only
// after dead is closed.
func (d *deployment) failure() string {
	return fmt.Sprintf("daemon %s exited mid-run; last output:\n%s", d.deadOne.name, d.deadOne.out.tail())
}

func httpJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (dm *daemon) stats() (core.ClusterStats, error) {
	var s core.ClusterStats
	err := httpJSON(dm.http, "/stats", &s)
	return s, err
}

// gatewayStats is the slice of mpgateway's /stats document the harness reads.
type gatewayStats struct {
	Backends []struct {
		Addr    string `json:"addr"`
		Healthy bool   `json:"healthy"`
		Active  int    `json:"active_sessions"`
	} `json:"backends"`
	Net core.NetStats `json:"net"`
}

func (dm *daemon) gatewayStats() (gatewayStats, error) {
	var s gatewayStats
	err := httpJSON(dm.http, "/stats", &s)
	return s, err
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const tick = time.Second / 100
	return time.Duration(ut+st) * tick, nil
}

// procRSS returns one resident-set figure of a process from
// /proc/<pid>/status, in MiB: "VmHWM" is the peak, "VmRSS" the current size.
func procRSS(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// selfCPU is the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTotal is the CPU used so far by every daemon plus the harness.
func (d *deployment) cpuTotal() time.Duration {
	total := selfCPU()
	for _, dm := range d.daemonList() {
		if c, err := procCPU(dm.cmd.Process.Pid); err == nil {
			total += c
		}
	}
	return total
}

// peakRSS sums the daemons' peak resident sets in MiB.
func (d *deployment) peakRSS() float64 {
	var sum float64
	for _, dm := range d.daemonList() {
		if r, err := procRSS(dm.cmd.Process.Pid, "VmHWM"); err == nil {
			sum += r
		}
	}
	return sum
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		// A file renamed away between listing and stat is simply not counted.
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}
