package main

// One workload run: set up a fresh cluster (deployed processes or an
// in-process library cluster), load, warm up, run the phases, check
// correctness, tear down.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"

	"polardbmp"
	"polardbmp/internal/core"
)

// phases is how long each part of a run lasts.
type phases struct {
	Warmup, Closed, Open time.Duration
}

// splitSeconds divides a run's measuring time 2:1 between the closed and
// the open loop. The issue asked for 30 s : 20 s; under the driver's cap on
// total run time the open loop is what gets shortened. Each cluster is
// warmed up for 1.5 s first, on top of the measuring time.
func splitSeconds(seconds float64) phases {
	total := time.Duration(seconds * float64(time.Second))
	closed := total * 2 / 3
	return phases{Warmup: 1500 * time.Millisecond, Closed: closed, Open: total - closed}
}

// env is a set-up cluster with its worker sessions.
type env struct {
	w       *workloadSpec
	workers []dbSession // one per session, index = session number
	// checkers reach each primary without the gateway, for the sum checks.
	checkers []dbSession

	dep *deployment        // deployed topologies
	db  *polardbmp.Cluster // lib topology
	dir string             // lib topology: scratch dir holding DataDir

	placementRetries int
	perBackend       float64 // gateway: worker sessions per backend after placement

	closed chan struct{} // deployed topologies: closed by close()
}

func (e *env) dead() <-chan struct{} {
	if e.dep != nil {
		return e.dep.dead
	}
	return nil
}

func (e *env) dataDir() string {
	if e.dep != nil {
		return e.dep.dataDir
	}
	return filepath.Join(e.dir, "data")
}

func (e *env) close() {
	if e.closed != nil {
		close(e.closed)
	}
	for _, s := range e.workers {
		s.Close()
	}
	for _, s := range e.checkers {
		s.Close()
	}
	if e.dep != nil {
		e.dep.stop()
	}
	if e.db != nil {
		e.db.Close()
	}
	if e.dir != "" {
		removeRunDir(e.dir)
	}
}

// maxPlacementRetries bounds the redials before a gateway run whose two
// worker sessions cannot be pinned one per backend fails as
// placement_unstable.
const maxPlacementRetries = 5

// placeWorker dials one worker session through the gateway and redials
// until no backend carries more than one. mpgateway.pick demotes a backend
// on an advisory slow flag, so without this two fresh sessions sometimes
// share the seed and the run measures a different system. held is what the
// backends carried before the dial; the counts after it are returned.
func placeWorker(d *deployment, name string, tables []string, held []int, retries *int) (*wireSession, []int, error) {
	for {
		s, err := dialWire(d.gateway.sess, name, tables)
		if err != nil {
			return nil, nil, err
		}
		gs, err := d.gateway.gatewayStats()
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		after := make([]int, len(gs.Backends))
		spread := true
		for i, b := range gs.Backends {
			after[i] = b.Active
			spread = spread && b.Active <= 1
		}
		if spread {
			return s, after, nil
		}
		s.Close()
		if *retries == maxPlacementRetries {
			return nil, nil, fmt.Errorf("placement_unstable: backends hold %v sessions after %d redials", after, *retries)
		}
		*retries++
		if err := awaitSessions(d, held); err != nil {
			return nil, nil, err
		}
	}
}

// awaitSessions waits until the gateway reports exactly `want` active
// sessions per backend, all healthy (a closed session is retired
// asynchronously, and a fresh gateway needs one probe round).
func awaitSessions(d *deployment, want []int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		gs, err := d.gateway.gatewayStats()
		if err != nil {
			return err
		}
		ok := len(gs.Backends) == len(want)
		for i, b := range gs.Backends {
			ok = ok && b.Healthy && b.Active == want[i]
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway backends never settled at %v sessions: %+v", want, gs.Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// setupDeployed spawns the daemons, loads the tables directly into both
// primaries, and dials the worker sessions.
func setupDeployed(w *workloadSpec, binDir string) (e *env, err error) {
	e = &env{w: w, closed: make(chan struct{})}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.dep, err = startDeployment(binDir, w.Topo == topoGateway); err != nil {
		return e, err
	}
	defer func() {
		if err == nil {
			go e.unblockOnDeath()
		}
	}()
	tables := w.tableNames()
	for _, dm := range []*daemon{e.dep.seed, e.dep.sat} {
		s, err := dialWire(dm.sess, "bench-"+dm.name, tables)
		if err != nil {
			return e, err
		}
		e.checkers = append(e.checkers, s)
	}
	if err := w.loadTables(e.checkers, wireLoadStreams); err != nil {
		return e, err
	}
	if w.Topo == topoDirect {
		// The direct sessions double as workers: session 0 on the seed,
		// session 1 on the satellite.
		e.workers, e.checkers = e.checkers, nil
		for _, dm := range []*daemon{e.dep.seed, e.dep.sat} {
			s, err := dialWire(dm.sess, "bench-check-"+dm.name, tables)
			if err != nil {
				return e, err
			}
			e.checkers = append(e.checkers, s)
		}
		return e, nil
	}
	held := []int{0, 0}
	if err := awaitSessions(e.dep, held); err != nil {
		return e, err
	}
	for i := 0; i < sessions; i++ {
		s, after, err := placeWorker(e.dep, fmt.Sprintf("bench-worker-%d", i), tables, held, &e.placementRetries)
		if err != nil {
			return e, err
		}
		e.workers = append(e.workers, s)
		held = after
	}
	e.perBackend = float64(slices.Max(held))
	return e, nil
}

// unblockOnDeath closes every session once a daemon has died, so that a call
// blocked on the dead process (or on a lock it held) fails instead of
// hanging the run. Returns when the env is closed.
func (e *env) unblockOnDeath() {
	select {
	case <-e.dep.dead:
		for _, s := range append(append([]dbSession(nil), e.workers...), e.checkers...) {
			s.Close()
		}
	case <-e.closed:
	}
}

// setupLib opens the in-process cluster over a fresh DataDir and loads it.
func setupLib(w *workloadSpec, traced bool) (e *env, err error) {
	e = &env{w: w}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.dir, err = newRunDir(); err != nil {
		return e, err
	}
	if err := e.openLib(traced); err != nil {
		return e, err
	}
	if err := w.loadTables(e.workers, 1); err != nil {
		return e, err
	}
	return e, nil
}

func (e *env) openLib(traced bool) error {
	var extra []polardbmp.Option
	if traced {
		extra = append(extra, polardbmp.WithTracer())
	}
	db, err := polardbmp.Open(polardbmp.Options{
		Nodes:             sessions,
		DataDir:           e.dataDir(),
		LocalBufferPages:  libLocalBufferPages,
		SharedBufferPages: libSharedBufferPages,
	}, extra...)
	if err != nil {
		return err
	}
	e.db = db
	var tables []polardbmp.Table
	for _, name := range e.w.tableNames() {
		t, err := db.CreateTable(name)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	e.workers = e.workers[:0]
	for i := 1; i <= sessions; i++ {
		e.workers = append(e.workers, &libSession{node: db.Node(i), tables: tables})
	}
	e.checkers = e.workers
	return nil
}

// reopenLib closes the cluster and opens the same DataDir again (recovery
// included), returning how long that took.
func (e *env) reopenLib(traced bool) (time.Duration, error) {
	t0 := time.Now()
	e.db.Close()
	e.db = nil
	if err := e.openLib(traced); err != nil {
		return 0, fmt.Errorf("reopen %s: %w", e.dataDir(), err)
	}
	return time.Since(t0), nil
}

// statsSnap is every counter source at one instant.
type statsSnap struct {
	seed, sat core.ClusterStats // lib: seed holds Cluster.Stats()
	gw        gatewayStats
	cpu       time.Duration
	diskBytes int64
}

func (e *env) snap() (statsSnap, error) {
	var s statsSnap
	var err error
	if e.db != nil {
		s.seed = e.db.Stats()
		s.cpu = selfCPU()
	} else {
		if s.seed, err = e.dep.seed.stats(); err != nil {
			return s, err
		}
		if s.sat, err = e.dep.sat.stats(); err != nil {
			return s, err
		}
		if e.dep.gateway != nil {
			if s.gw, err = e.dep.gateway.gatewayStats(); err != nil {
				return s, err
			}
		}
		s.cpu = e.dep.cpuTotal()
	}
	s.diskBytes = dirBytes(e.dataDir())
	return s, nil
}

func (s statsSnap) commits() int64 { return s.seed.Commits + s.sat.Commits }

// txStream is the per-session transaction streams of one run, drawn from
// its seed. Streams continue across phases.
type txStream struct {
	e    *env
	rngs []*rand.Rand
}

func (e *env) stream(seed int64) *txStream {
	t := &txStream{e: e}
	for i := range e.workers {
		t.rngs = append(t.rngs, rand.New(rand.NewSource(seed*1000003+int64(i))))
	}
	return t
}

// attempts returns the attemptFunc the load loops call; wrap, if not nil,
// interposes on each worker session (the traced phase wraps them in spans).
func (t *txStream) attempts(wrap func(sess int, s dbSession) dbSession) attemptFunc {
	ss := append([]dbSession(nil), t.e.workers...)
	if wrap != nil {
		for i := range ss {
			ss[i] = wrap(i, ss[i])
		}
	}
	return func(sess int) (int, error) {
		p := t.e.w.planTx(t.rngs[sess], sess)
		return t.e.w.runTx(ss[sess], &p)
	}
}

// runConfig is what one workload run needs besides the workload itself.
type runConfig struct {
	seed int64
	// ph is the whole run's measuring time; it is divided evenly among the
	// clusters.
	ph phases
	// clusters is how many fresh clusters the run sets up and measures, one
	// after the other. Every end-to-end metric is the median of its
	// per-cluster values: on the reference host what varies from run to run
	// is mostly the luck of one set of processes, which this averages out.
	clusters int
	traced   bool // per-layer run: spans, counter deltas, probes, reconciliation
	// probeScale scales the probe pass's time and iteration budgets.
	probeScale float64
	binDir     string
}

func (cfg *runConfig) setup(w *workloadSpec) (*env, error) {
	if w.Topo == topoLib {
		return setupLib(w, cfg.traced)
	}
	return setupDeployed(w, cfg.binDir)
}

// runWorkload performs one run. The error return is for harness failures
// with nothing to report; a run that measured but failed a correctness
// check comes back with Correct == false and the reasons in Errors.
func runWorkload(w *workloadSpec, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: w.Name, Samples: map[string]int{}, Notes: map[string]string{}}
	per := map[string][]float64{}
	for i := 0; i < cfg.clusters; i++ {
		vals, err := runCluster(w, cfg, i, res)
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			per[k] = append(per[k], v)
		}
		res.Samples["clusters"]++
		if len(res.Errors) > 0 {
			break // the run has failed; further clusters would only cost time
		}
	}
	vals := make(map[string]float64, len(per))
	for k, xs := range per {
		vals[k] = median(xs)
	}
	res.Notes["rate_tps"] = fmt.Sprintf("%g", w.RateTPS)

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	var err error
	if res.Metrics, err = fill(defs, vals); err != nil {
		return nil, err
	}
	if !cfg.traced {
		if res.Info, err = fill(demoted, vals); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	return res, nil
}

// runCluster sets up cluster number idx of a run, measures it, checks it and
// tears it down. It returns that cluster's metric values and adds its
// attempts, sample counts and any failed check to res.
func runCluster(w *workloadSpec, cfg runConfig, idx int, res *runResult) (map[string]float64, error) {
	vals := map[string]float64{}
	n := time.Duration(cfg.clusters)
	ph := phases{Warmup: cfg.ph.Warmup, Closed: cfg.ph.Closed / n, Open: cfg.ph.Open / n}

	// Set-up: spawn -> loaded -> worker sessions placed. The fixed-length
	// warm-up that follows is not part of it.
	t0 := time.Now()
	e, err := cfg.setup(w)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer e.close()
	vals["setup_s"] = time.Since(t0).Seconds()

	fail := func(format string, args ...any) {
		res.Errors = append(res.Errors, fmt.Sprintf("cluster %d: ", idx)+fmt.Sprintf(format, args...))
	}
	snap := func() statsSnap {
		s, err := e.snap()
		if err != nil {
			fail("reading counters: %v", err)
		}
		return s
	}

	base := snap()
	// Each cluster of a run continues the seed's key streams where a single
	// cluster would have been: its own sub-seed.
	stream := e.stream(cfg.seed*int64(maxClusters) + int64(idx))
	plain := stream.attempts(nil)
	var all phaseResult
	all.merge(closedLoop(sessions, ph.Warmup, e.dead(), plain))

	closedDur := ph.Closed
	if cfg.traced {
		closedDur /= 2 // untraced half, then traced half
	}
	s0 := snap()
	closed := closedLoop(sessions, closedDur, e.dead(), plain)
	s1 := snap()
	all.merge(closed)

	var tr *tracer
	var tracedPhase phaseResult
	var t1 statsSnap
	if cfg.traced {
		// Same key streams, same sessions, now wrapped in spans.
		tr = newTracer()
		tracedPhase = closedLoop(sessions, closedDur, e.dead(), tr.traceAttempts(stream.attempts(tr.wrap)))
		t1 = snap()
		all.merge(tracedPhase)
	}

	open := openLoop(sessions, w.RateTPS, ph.Open, e.dead(), plain)
	final := snap()
	all.merge(open)

	// Resident memory, before verification scans inflate it: the daemons'
	// peak, or for the in-process cluster what this process still holds
	// after a forced collection (its peak would include earlier clusters).
	if e.dep != nil {
		vals["rss_mb"] = e.dep.peakRSS()
	} else {
		debug.FreeOSMemory()
		if vals["rss_mb"], err = procRSS(os.Getpid(), "VmRSS"); err != nil {
			fail("%v", err)
		}
	}

	res.Attempted += all.Attempted
	res.Failed += all.Failed
	if all.FirstErr != nil {
		fail("first failed attempt: %v", all.FirstErr)
	}
	if d := e.dead(); d != nil && isClosed(d) {
		fail("%s", e.dep.failure())
	} else {
		// Correctness: counter sum conserved as seen from every primary, and
		// the daemons counted exactly the commits the clients did.
		for i, c := range e.checkers {
			if err := w.checkSums(c, fmt.Sprintf("primary %d", i+1)); err != nil {
				fail("%v", err)
			}
		}
		if got := final.commits() - base.commits(); got != int64(all.Commits) {
			fail("daemons counted %d commits, clients %d", got, all.Commits)
		}
		if e.db != nil && idx == cfg.clusters-1 {
			// Every acknowledged commit survives a restart of the DataDir
			// (checked on the run's last cluster; a reopen costs seconds).
			d, err := e.reopenLib(cfg.traced)
			if err != nil {
				fail("%v", err)
			} else {
				vals["core.reopen_ms"] = ms(d)
				if err := w.checkSums(e.checkers[0], "after reopen"); err != nil {
					fail("%v", err)
				}
			}
		}
	}

	// End-to-end numbers, from the phases that ran without spans.
	cl, ol := summarize(closed.LatMS), summarize(open.LatMS)
	vals["tps"] = float64(closed.Commits) / closed.Elapsed.Seconds()
	vals["tx_p50_ms"], vals["tx_p99_ms"] = cl.P50, cl.P99
	vals["ol_p50_ms"], vals["ol_p99_ms"] = ol.P50, ol.P99
	vals["fail_frac"] = float64(all.Failed) / float64(max(all.Attempted, 1))
	vals["cpu_ms_per_tx"] = ms(s1.cpu-s0.cpu) / float64(max(closed.Commits, 1))
	vals["loadgen.late_p99_ms"] = summarize(open.LateMS).P99
	res.Samples["tx_ms"] += cl.Samples
	res.Samples["tx_ms_beyond_p99"] += cl.BeyondP99
	res.Samples["ol_ms"] += ol.Samples
	res.Samples["ol_ms_beyond_p99"] += ol.BeyondP99
	res.Samples["retries"] += all.Retries
	res.Notes["phases_per_cluster"] = fmt.Sprintf("warmup %v, closed %v, open %v", ph.Warmup, closedDur, ph.Open)
	res.Notes[fmt.Sprintf("closed_tps_by_session.cluster%d", idx)] = fmt.Sprintf("%.1f, %.1f",
		float64(closed.PerSession[0])/closed.Elapsed.Seconds(), float64(closed.PerSession[1])/closed.Elapsed.Seconds())
	if !cfg.traced {
		return vals, nil
	}

	if _, ok := vals["core.reopen_ms"]; !ok {
		vals["core.reopen_ms"] = 0 // only the in-process workload reopens
	}
	tracedTPS := float64(tracedPhase.Commits) / tracedPhase.Elapsed.Seconds()
	vals["trace_overhead_frac"] = 1 - tracedTPS/vals["tps"]
	counterMetrics(vals, e, s1, t1, tracedPhase.Commits)

	spans := tr.all()
	byName := durationsUS(spans)
	for _, name := range statementSpans {
		sum := summarize(byName[name])
		vals[name+"_p50_us"], vals[name+"_p99_us"] = sum.P50, sum.P99
		res.Samples[name] = sum.Samples
	}
	path := filepath.Join("bench", "out", "trace_"+w.Name+".json")
	if err := writeSpans(path, spans); err != nil {
		fail("writing spans: %v", err)
	}
	res.Notes["spans"] = path

	for _, msg := range runProbes(vals, cfg.probeScale, cfg.binDir) {
		fail("%s", msg)
	}
	stmts := float64(len(spans)-len(byName[spanTx])) / float64(max(len(byName[spanTx]), 1))
	var explained float64
	res.Recon, explained = reconcile(w, vals, stmts)
	vals["recon.explained_ms"] = explained
	vals["recon.unexplained_frac"] = 1 - explained/summarize(tracedPhase.LatMS).P50
	return vals, nil
}
