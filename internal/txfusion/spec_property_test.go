package txfusion

import (
	"math/rand"
	"sync"
	"testing"

	"polardbmp/internal/common"
	"polardbmp/internal/rdma"
)

// TestPropertySpecCTSMatchesTITGroundTruth pins the §14 speculative-CTS
// safety argument: a speculative hit (resolving a peer transaction from its
// owner's published recycle floor, skipping the TIT round-trip) must never
// answer differently from the real TIT read. A writer churns transactions —
// commit, abort, recycle under a growing GMV — while a spec-enabled reader
// resolves random ids; every time the reader's spec counter ticks, the same
// id is re-resolved through a client that has forgotten every snooped floor,
// so its only source is the TIT itself, and both must say CSNMin ("finished,
// visible to all").
func TestPropertySpecCTSMatchesTITGroundTruth(t *testing.T) {
	fabric := rdma.NewFabric(rdma.Latency{})
	NewServer(fabric.Register(common.PMFSNode), fabric)
	writer := NewClient(fabric.Register(common.NodeID(1)), fabric, Config{})
	reader := NewClient(fabric.Register(common.NodeID(2)), fabric, Config{})
	ground := NewClient(fabric.Register(common.NodeID(3)), fabric, Config{})
	writer.InitTrxFloor(0)

	const churn = 400
	var (
		mu     sync.Mutex
		issued []common.GTrxID
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(11))
		var csn common.CSN
		for i := 1; i <= churn; i++ {
			g, err := writer.Begin(common.TrxID(i))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			issued = append(issued, g)
			mu.Unlock()
			if rng.Intn(4) == 0 {
				writer.Finish(g) // abort: rolled back, slot released
			} else {
				csn++
				if _, err := writer.Commit(g, csn); err != nil {
					t.Error(err)
					return
				}
			}
			// Recycle committed slots under the advancing GMV so the
			// published floor actually moves during the run.
			if i%7 == 0 {
				writer.Recycle(csn)
			}
		}
		writer.Recycle(csn)
	}()

	rng := rand.New(rand.NewSource(13))
	specHits := 0
	check := func(g common.GTrxID) {
		h0, _ := reader.SpecCTSStats()
		cts, err := reader.GetTrxCTS(g)
		if err != nil {
			t.Fatal(err)
		}
		h1, _ := reader.SpecCTSStats()
		if h1 == h0 {
			return // real TIT read — nothing speculative to cross-check
		}
		specHits++
		if cts != common.CSNMin {
			t.Fatalf("spec hit for %v returned %d, want CSNMin", g, cts)
		}
		// The floor proved g finished; the TIT itself must agree, and the
		// answer is immutable from here on.
		ground.floorMu.Lock()
		clear(ground.peerFloor)
		ground.floorMu.Unlock()
		gt, err := ground.GetTrxCTS(g)
		if err != nil {
			t.Fatal(err)
		}
		if gt != common.CSNMin {
			t.Fatalf("spec hit for %v but TIT ground truth = %d, want CSNMin", g, gt)
		}
	}
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		mu.Lock()
		n := len(issued)
		var g common.GTrxID
		if n > 0 {
			g = issued[rng.Intn(n)]
		}
		mu.Unlock()
		if n == 0 || t.Failed() {
			continue
		}
		check(g)
	}
	if t.Failed() {
		return
	}
	// Final sweep: every issued transaction is finished now; after one real
	// read refreshes the floor cache, old ids must hit the spec path and
	// still agree with the TIT.
	mu.Lock()
	all := append([]common.GTrxID(nil), issued...)
	mu.Unlock()
	for _, g := range all {
		check(g)
	}
	if specHits == 0 {
		t.Fatal("speculative CTS path never hit — property not exercised")
	}
	if hits, reads := reader.SpecCTSStats(); hits == 0 || reads < hits {
		t.Fatalf("implausible spec counters: hits=%d reads=%d", hits, reads)
	}
}
