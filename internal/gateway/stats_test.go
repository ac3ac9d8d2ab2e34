package gateway

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"polardbmp/internal/core"
	"polardbmp/internal/wire"
)

// fillNonZero sets every field reachable from v to a non-zero value, so that
// omitempty hides nothing from the marshalled document.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	}
}

// keyPaths lists every object key in doc as a dotted path, arrays as [].
func keyPaths(t *testing.T, doc any) []string {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, n any)
	walk = func(prefix string, n any) {
		switch n := n.(type) {
		case map[string]any:
			for k, c := range n {
				seen[prefix+k] = true
				walk(prefix+k+".", c)
			}
		case []any:
			for _, c := range n {
				walk(strings.TrimSuffix(prefix, ".")+"[].", c)
			}
		}
	}
	walk("", tree)
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// TestStatsJSONNames pins every JSON name of the two stats documents the
// daemons serve — mpserver's ClusterStats and the gateway's /stats — against
// the list this same test printed at the commit before the stats sections
// moved to the types that count them: scripts, bench/ and dashboards read
// these names, so no refactor of the Go types may move one.
func TestStatsJSONNames(t *testing.T) {
	var cs core.ClusterStats
	fillNonZero(reflect.ValueOf(&cs).Elem())

	gw := &Gateway{nc: &wire.NetCounters{}, backends: []*backend{{
		addr: "a", healthy: true, failEWMA: 0.5, active: 1, sessions: 1, lastErr: "e", node: 1, state: "draining",
	}}}

	for name, tc := range map[string]struct {
		doc  any
		want string
	}{
		"cluster": {cs, clusterStatsNames},
		"gateway": {gw.Stats(), gatewayStatsNames},
	} {
		if got := strings.Join(keyPaths(t, tc.doc), "\n"); got != strings.TrimSpace(tc.want) {
			t.Errorf("%s stats JSON names changed:\n%s", name, got)
		}
	}
}

const clusterStatsNames = `
aborts
commit
commit.engine
commit.occ_conflicts
commit.pipeline_rides
commit.pipeline_rounds
commit.spec_cts_hits
commit.spec_cts_reads
commit.tso_group
commit.tso_solo
commits
dbp_resident_pages
deadline_aborts
deadlocks
fabric
fabric.atomics
fabric.bytes_read
fabric.bytes_write
fabric.reads
fabric.rpcs
fabric.writes
locks
locks.plock_negotiations
locks.rlock_deadlocks
locks.rlock_waits
membership
membership.epoch
membership.epoch_bumps
membership.false_suspicions
membership.lease_renewals
membership.takeover_err
membership.takeover_fails
membership.takeover_mean_ns
membership.takeovers
net
net.bytes_in
net.bytes_out
net.codec_errors
net.conns_accepted
net.conns_dialed
net.conns_open
net.frames_in
net.frames_out
net.pipeline_depth
nodes
nodes[].aborts
nodes[].commits
nodes[].conflicts
nodes[].deadline_aborts
nodes[].deadlocks
nodes[].deferred_aborts
nodes[].fabric
nodes[].fabric.atomics
nodes[].fabric.bytes_read
nodes[].fabric.bytes_write
nodes[].fabric.reads
nodes[].fabric.rpcs
nodes[].fabric.writes
nodes[].node
nodes[].stages
nodes[].stages[].count
nodes[].stages[].max_ns
nodes[].stages[].mean_ns
nodes[].stages[].ops
nodes[].stages[].ops.atomics
nodes[].stages[].ops.bytes_read
nodes[].stages[].ops.bytes_write
nodes[].stages[].ops.reads
nodes[].stages[].ops.rpcs
nodes[].stages[].ops.writes
nodes[].stages[].p50_ns
nodes[].stages[].p95_ns
nodes[].stages[].p99_ns
nodes[].stages[].stage
nodes[].stages[].total_ns
nodes[].tx_p50_ns
nodes[].tx_p99_ns
pmfs
pmfs.degraded_ops
pmfs.dup_suppressed
pmfs.epoch
pmfs.failovers
pmfs.grants
pmfs.leader
pmfs.live
pmfs.mirrored_bytes
pmfs.mirrored_writes
pmfs.quorum_mean_ns
pmfs.quorum_ops
pmfs.quorum_p50_ns
pmfs.quorum_p99_ns
pmfs.read_repairs
pmfs.replicas
slow_txs
slow_txs[].committed
slow_txs[].cts
slow_txs[].gtrx
slow_txs[].node
slow_txs[].spans
slow_txs[].spans[].dur_ns
slow_txs[].spans[].ops
slow_txs[].spans[].ops.atomics
slow_txs[].spans[].ops.bytes_read
slow_txs[].spans[].ops.bytes_write
slow_txs[].spans[].ops.reads
slow_txs[].spans[].ops.rpcs
slow_txs[].spans[].ops.writes
slow_txs[].spans[].stage
slow_txs[].spans[].start_ns
slow_txs[].spans_dropped
slow_txs[].total_ns
stages
stages[].count
stages[].max_ns
stages[].mean_ns
stages[].ops
stages[].ops.atomics
stages[].ops.bytes_read
stages[].ops.bytes_write
stages[].ops.reads
stages[].ops.rpcs
stages[].ops.writes
stages[].p50_ns
stages[].p95_ns
stages[].p99_ns
stages[].stage
stages[].total_ns
storage
storage.log_syncs
storage.page_reads
`

const gatewayStatsNames = `
backends
backends[].active_sessions
backends[].addr
backends[].fail_ewma
backends[].healthy
backends[].last_err
backends[].node
backends[].state
backends[].total_sessions
net
net.bytes_in
net.bytes_out
net.codec_errors
net.conns_accepted
net.conns_dialed
net.conns_open
net.frames_in
net.frames_out
net.pipeline_depth
version
`
