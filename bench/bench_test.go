package main

// Unit tests of the harness's own logic. They spawn no process and touch no
// cluster, so `go test ./...` costs what it did before.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000, sorted
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

func TestSummarizeStatesSamplesBeyondTail(t *testing.T) {
	// p99 is only supported with ten or more samples beyond it.
	for _, c := range []struct{ n, beyond int }{{100, 1}, {999, 9}, {1000, 10}, {7200, 72}, {0, 0}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		s := summarize(xs)
		if s.Samples != c.n || s.BeyondP99 != c.beyond {
			t.Errorf("n=%d: samples %d beyond %d, want beyond %d", c.n, s.Samples, s.BeyondP99, c.beyond)
		}
		above := 0
		for _, x := range xs {
			if x > s.P99 {
				above++
			}
		}
		if above != c.beyond {
			t.Errorf("n=%d: %d samples really lie above p99, summary says %d", c.n, above, c.beyond)
		}
	}
	if xs := []float64{3, 1, 2}; summarize(xs).P50 != 2 || xs[0] != 3 {
		t.Error("summarize must not reorder its input and must find the median")
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{4, 1, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median wrong")
	}
}

// A stall in the system under test must show up in the latency of the
// arrivals queued behind it: latency runs from the due time, not from when
// the session got round to sending.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const rate, stall = 200.0, 60 * time.Millisecond
	var calls atomic.Int64
	res := openLoop(1, rate, 300*time.Millisecond, nil, func(int) (int, error) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return 0, nil
	})
	if res.Attempted != 60 || res.Failed != 0 || res.Commits != 60 || len(res.LatMS) != 60 || len(res.LateMS) != 60 {
		t.Fatalf("attempted %d failed %d commits %d lat %d late %d, want 60/0/60/60/60",
			res.Attempted, res.Failed, res.Commits, len(res.LatMS), len(res.LateMS))
	}
	// Arrival 1 was due at 5 ms and could not start before the 60 ms stall
	// ended: it must be charged about 55 ms although it ran instantly.
	if res.LatMS[1] < 50 || res.LateMS[1] < 50 {
		t.Errorf("arrival behind the stall: latency %.1f ms, late %.1f ms, want >= 50", res.LatMS[1], res.LateMS[1])
	}
	// The backlog drains; the last arrivals are on time again.
	if last := res.LatMS[len(res.LatMS)-1]; last > 20 {
		t.Errorf("last arrival latency %.1f ms, want the backlog drained", last)
	}
	// Generator lateness is reported and is of the stall's order.
	if late := summarize(res.LateMS).P99; late < 40 || late > 100 {
		t.Errorf("late p99 %.1f ms, want about the %v stall", late, stall)
	}
	if res.Elapsed < 295*time.Millisecond {
		t.Errorf("open loop ended after %v, before its last arrival was due", res.Elapsed)
	}
}

func TestOpenLoopSpreadsArrivalsOverFreeSessions(t *testing.T) {
	var perSession [2]atomic.Int64
	res := openLoop(2, 400, 100*time.Millisecond, nil, func(s int) (int, error) {
		perSession[s].Add(1)
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	if res.Attempted != 40 || perSession[0].Load() == 0 || perSession[1].Load() == 0 {
		t.Errorf("attempted %d, per session %d/%d", res.Attempted, perSession[0].Load(), perSession[1].Load())
	}
}

func TestOpenLoopCountsUnsentAsFailedWhenDaemonDies(t *testing.T) {
	dead := make(chan struct{})
	var calls atomic.Int64
	res := openLoop(2, 1000, 200*time.Millisecond, dead, func(int) (int, error) {
		if calls.Add(1) == 20 {
			close(dead)
		}
		return 0, nil
	})
	if res.Attempted != 200 {
		t.Fatalf("attempted %d, want every scheduled arrival (200) counted", res.Attempted)
	}
	if res.Commits+res.Failed != 200 || res.Failed < 170 {
		t.Errorf("commits %d failed %d: unsent arrivals must count as failed", res.Commits, res.Failed)
	}
	if res.Elapsed > 150*time.Millisecond {
		t.Errorf("took %v: a dead cluster must not be waited out", res.Elapsed)
	}
}

func TestClosedLoopRecordsFailuresAndRetries(t *testing.T) {
	boom := errors.New("boom")
	var n atomic.Int64
	res := closedLoop(2, 30*time.Millisecond, nil, func(int) (int, error) {
		time.Sleep(time.Millisecond)
		if n.Add(1)%5 == 0 {
			return 3, boom
		}
		return 1, nil
	})
	if res.Failed == 0 || res.Commits == 0 || res.Attempted != res.Failed+res.Commits {
		t.Fatalf("attempted %d commits %d failed %d", res.Attempted, res.Commits, res.Failed)
	}
	if len(res.LatMS) != res.Commits || !errors.Is(res.FirstErr, boom) || res.Retries < res.Attempted {
		t.Errorf("latencies %d for %d commits, first error %v, retries %d", len(res.LatMS), res.Commits, res.FirstErr, res.Retries)
	}
}

func TestSplitSeconds(t *testing.T) {
	for _, seconds := range []float64{5, 15, 50} {
		ph := splitSeconds(seconds)
		total := time.Duration(seconds * float64(time.Second))
		if ph.Closed+ph.Open != total || ph.Closed < 2*ph.Open-time.Millisecond || ph.Closed > 2*ph.Open+time.Millisecond {
			t.Errorf("%v s split into closed %v open %v, want 2:1 summing to the total", seconds, ph.Closed, ph.Open)
		}
		if ph.Warmup <= 0 {
			t.Errorf("%v s: no warm-up", seconds)
		}
	}
}

func TestPlanTxStreamsAreSeededAndInRange(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for sess := 0; sess < sessions; sess++ {
			a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			other := rand.New(rand.NewSource(8))
			differs := false
			for n := 0; n < 2000; n++ {
				p, q := w.planTx(a, sess), w.planTx(b, sess)
				if !reflect.DeepEqual(p, q) {
					t.Fatalf("%s: same seed, different plan", w.Name)
				}
				differs = differs || !reflect.DeepEqual(p, w.planTx(other, sess))
				if p.k1 >= p.k2 || p.delta < 1 || p.delta > 9 {
					t.Fatalf("%s: plan %+v: want k1 < k2 and a small positive delta", w.Name, p)
				}
				keys := append([]int{p.k1, p.k2}, p.reads[:]...)
				for _, k := range keys {
					if k < 0 || k >= w.Rows {
						t.Fatalf("%s: key %d outside [0,%d)", w.Name, k, w.Rows)
					}
				}
				switch {
				case w.Tables > 1:
					if p.table != sess {
						t.Fatalf("%s: session %d planned on table %d, want its own", w.Name, sess, p.table)
					}
				case w.SharedPct < 100:
					// All keys of one transaction come from one region:
					// the shared half or this session's private quarter.
					shared := p.k1 < w.Rows/2
					lo := w.Rows/2 + sess*w.Rows/4
					for _, k := range keys {
						if (k < w.Rows/2) != shared || (!shared && (k < lo || k >= lo+w.Rows/4)) {
							t.Fatalf("%s: session %d key %d leaves its region (plan %+v)", w.Name, sess, k, p)
						}
					}
				}
			}
			if !differs {
				t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
			}
		}
	}
}

func TestSharedPctIsHonoured(t *testing.T) {
	w := findWorkload("lib_rw_cold")
	rng := rand.New(rand.NewSource(1))
	shared := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if w.planTx(rng, 1).k1 < w.Rows/2 {
			shared++
		}
	}
	if got := 100 * float64(shared) / n; math.Abs(got-float64(w.SharedPct)) > 2 {
		t.Errorf("%.1f%% of transactions on the shared half, want %d%%", got, w.SharedPct)
	}
}

func TestRowValueCarriesCounter(t *testing.T) {
	v := rowValue(-42)
	if len(v) != valueLen || checkValue(rowKey(1), v) != nil {
		t.Fatalf("value of %d bytes", len(v))
	}
	if checkValue(rowKey(1), v[:10]) == nil {
		t.Error("a truncated value must fail the output check")
	}
	if string(rowKey(7)) != "k000000007" {
		t.Errorf("key %q", rowKey(7))
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesWorkloads(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q / %q differs from %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || !reflect.DeepEqual(m.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("paths %v command %v", m.Paths, m.Command)
	}
}

func TestManifestMatchesCatalogue(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\ncode     %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %+v\ncode     %+v", m.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name or unit", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %q: better %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("setup_s present %v, %d end-to-end, %d per-layer", hasSetup, len(endToEnd), len(perLayer))
	}
}

func TestFillEmitsExactlyTheCatalogue(t *testing.T) {
	vals := map[string]float64{"extra.ignored": 1}
	for _, d := range endToEnd {
		vals[d.Name] = 1.5
	}
	set, err := fill(endToEnd, vals)
	if err != nil || len(set) != len(endToEnd) {
		t.Fatalf("fill: %v, %d metrics", err, len(set))
	}
	for _, d := range endToEnd {
		if set[d.Name].Unit != d.Unit {
			t.Errorf("%s emitted with unit %q, catalogue says %q", d.Name, set[d.Name].Unit, d.Unit)
		}
	}
	delete(vals, "tps")
	if _, err := fill(endToEnd, vals); err == nil {
		t.Error("a metric that was not measured must be an error, not a silent zero")
	}

	r := &runResult{Correct: true, Attempted: 10, Metrics: set, Workload: "w", Samples: map[string]int{"x": 1}}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{5}) != 0 || math.Abs(spread([]float64{9, 10, 11})-0.2) > 1e-9 {
		t.Error("spread of one run is unknown (0); of two or three, the range over the median")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	tps := metricDef{Name: "tps", Better: higher, Bound: 0.10}
	lat := metricDef{Name: "tx_p50_ms", Better: lower, Bound: 0.10}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"higher-is-better drop beyond bound", tps, []float64{1000}, []float64{880}, verdictWorse},
		{"higher-is-better drop within bound", tps, []float64{1000}, []float64{950}, verdictOK},
		{"higher-is-better gain", tps, []float64{1000}, []float64{1500}, verdictOK},
		{"lower-is-better rise beyond bound", lat, []float64{2.0}, []float64{2.3}, verdictWorse},
		{"lower-is-better rise within bound", lat, []float64{2.0}, []float64{2.1}, verdictOK},
		{"lower-is-better fall", lat, []float64{2.0}, []float64{1.0}, verdictOK},
		{"a side noisier than the bound", lat, []float64{2.0, 2.6, 2.0, 2.7, 2.1}, []float64{2.2, 2.2, 2.2, 2.2}, verdictUnresolved},
		{"noise hides even a real regression", tps, []float64{1000, 1001, 999, 1000}, []float64{500, 900, 510, 880}, verdictUnresolved},
		{"steady sets, medians apart", tps, []float64{1000, 1001, 999, 1000}, []float64{800, 801, 799, 800}, verdictWorse},
	} {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, traced bool) string {
		rf := &resultFile{Seconds: 12, Traced: traced}
		pass := resultPass{Seed: 1, Workloads: map[string]*runResult{}}
		for _, w := range workloads {
			set := metricSet{}
			for _, d := range endToEnd {
				v := 100.0
				if d.Name == "tps" {
					v *= scale
				}
				set[d.Name] = metricValue{v, d.Unit}
			}
			pass.Workloads[w.Name] = &runResult{Correct: true, Attempted: 1, Metrics: set, Workload: w.Name}
		}
		rf.Passes = []resultPass{pass}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var tpsBound float64
	for _, d := range endToEnd {
		if d.Name == "tps" {
			tpsBound = d.Bound
		}
	}
	base, traced := write("a.json", 1, false), write("t.json", 1, true)
	same, slow := write("b.json", 1-tpsBound/3, false), write("c.json", 1-2*tpsBound, false)

	var out bytes.Buffer
	if code := runCompare(&out, base, same); code != 0 || strings.Contains(out.String(), "worse\n") {
		t.Errorf("a third of the bound slower must pass: exit %d\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "  ok\n"); rows != len(workloads)*len(endToEnd) {
		t.Errorf("%d ok rows, want one per workload and end-to-end metric (%d)", rows, len(workloads)*len(endToEnd))
	}
	out.Reset()
	if code := runCompare(&out, base, slow); code != 1 || strings.Count(out.String(), "  worse\n") != len(workloads) {
		t.Errorf("tps slower by twice its bound must fail on every workload: exit %d\n%s", code, out.String())
	}
	if code := runCompare(&out, base, traced); code != 2 {
		t.Errorf("a traced file must be refused, exit %d", code)
	}
	if code := runCompare(&out, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("a missing file must be refused, exit %d", code)
	}

	b, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(b)), "\"claim\": null\n}") {
		t.Errorf("a result file must end with \"claim\": null, ends %q", string(b[len(b)-40:]))
	}
}

func TestReconcileSumsCountsTimesUnitCosts(t *testing.T) {
	w := findWorkload("gw_ro_point")
	v := map[string]float64{
		"wire.ping_direct_us": 10, "gateway.frames_per_tx": 24, "gateway.ping_hop_us": 20,
		"core.get_warm_us": 1, "core.rw_commit_warm_us": 1000, "rdma.reads_per_tx.sat": 2, "rdma.socket_read_us": 25,
	}
	rows, explained := reconcile(w, v, 12)
	// 12 x 10 + 24/2 x 20 + 10 x 1 + 2 x 25 = 420 us; no write rows on ro.
	if math.Abs(explained-0.420) > 1e-9 {
		t.Errorf("explained %.4f ms, want 0.4200 (rows %+v)", explained, rows)
	}
	var sum float64
	for _, r := range rows {
		sum += r.MS
		if strings.Contains(r.Layer, "write") {
			t.Errorf("read-only workload charged for %q", r.Layer)
		}
	}
	if math.Abs(sum-explained) > 1e-12 {
		t.Errorf("rows sum to %v, explained says %v", sum, explained)
	}
}

func TestSpansGroupByTransaction(t *testing.T) {
	tr := newTracer()
	calls := 0
	attempt := tr.traceAttempts(func(sess int) (int, error) {
		calls++
		st := tr.sess[sess]
		st.child(spanBegin, time.Now())
		st.child(spanGet, time.Now())
		st.child(spanCommit, time.Now())
		return 0, nil
	})
	for i := 0; i < 3; i++ {
		_, _ = attempt(i % sessions)
	}
	spans := tr.all()
	if len(spans) != 12 {
		t.Fatalf("%d spans, want 3 transactions x (root + 3 statements)", len(spans))
	}
	ids, roots := map[int64]bool{}, map[int64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Errorf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
		if s.Name == spanTx {
			roots[s.ID] = true
			if s.Parent != 0 || s.Tx != s.ID {
				t.Errorf("root span %+v", s)
			}
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	for _, s := range spans {
		if s.Name != spanTx && (!roots[s.Parent] || s.Tx != s.Parent) {
			t.Errorf("statement span %+v does not hang off its transaction's root", s)
		}
	}
	if by := durationsUS(spans); len(by[spanGet]) != 3 || len(by[spanTx]) != 3 {
		t.Errorf("grouping by name: %d gets, %d roots", len(by[spanGet]), len(by[spanTx]))
	}
}

func TestTailBufferKeepsLastLinesAndFindsAddresses(t *testing.T) {
	var tb tailBuffer
	_, _ = tb.Write([]byte("mpserver 0.8.0: node 1 serving sess"))
	_, _ = tb.Write([]byte("ions on 127.0.0.1:4242\nmpserver 0.8.0: stats endpoint on http://127.0.0.1:99/stats\n"))
	if got := tb.find(reSess); got != "127.0.0.1:4242" {
		t.Errorf("session address %q", got)
	}
	if got := tb.find(reHTTP); got != "127.0.0.1:99" {
		t.Errorf("http address %q", got)
	}
	if got := tb.find(reFabric); got != "" {
		t.Errorf("fabric address %q from a daemon that printed none", got)
	}
	for i := 0; i < 3*tailKeep; i++ {
		_, _ = tb.Write([]byte("noise\n"))
	}
	if n := strings.Count(tb.tail(), "\n") + 1; n != tailKeep {
		t.Errorf("tail keeps %d lines, want %d", n, tailKeep)
	}
}

func TestTimeLoopReportsMedianPerOperation(t *testing.T) {
	n := 0
	per, err := timeLoop(0.01, func() error {
		n++
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	if err != nil || per < 150e3 || per > 2e6 {
		t.Errorf("per-op %v ns (err %v), want about 200 us", per, err)
	}
	boom := errors.New("boom")
	if _, err := timeLoop(0.01, func() error { return boom }); !errors.Is(err, boom) {
		t.Errorf("a failing probe must report its error, got %v", err)
	}
}
