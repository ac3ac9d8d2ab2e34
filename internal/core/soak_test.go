//go:build soak

// Soak reproducers of open defects (ROADMAP items 27 and 1). They count and
// report, and assert nothing: a defect's test moves into the ordinary suite,
// with an assertion, in the change that fixes it. `make soak` runs them and
// collects their JSON lines into soak.json.

package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardbmp/internal/common"
)

// soakRuns is how many fresh clusters each engine's soak test runs.
const soakRuns = 10

// TestSoakSIScanBank is ROADMAP item 1's reproducer: two nodes, 16 accounts
// of 1,000, four transfer workers per node moving 1 from the lower key to the
// higher under GetForUpdate, and a tight loop of SI scans on node 1 for
// 1.5 s. Every scan must see all 16 rows summing to 16,000; one that does not
// is a torn sum or has rows missing.
func TestSoakSIScanBank(t *testing.T) {
	for _, cc := range []string{CC2PL, CCOCC} {
		t.Run(cc, func(t *testing.T) {
			var out struct {
				Soak        string `json:"soak"`
				CC          string `json:"cc"`
				Runs        int    `json:"runs"`
				RunsFailing int    `json:"runs_failing"`
				TornSums    int    `json:"torn_sums"`
				RowsMissing int    `json:"rows_missing"`
				Scans       int    `json:"scans"`
			}
			out.Soak, out.CC, out.Runs = "si_scan_bank", cc, soakRuns
			for run := 0; run < soakRuns; run++ {
				torn, missing, scans := siScanBankRun(t, cc, int64(run))
				if torn+missing > 0 {
					out.RunsFailing++
				}
				out.TornSums += torn
				out.RowsMissing += missing
				out.Scans += scans
			}
			line, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Println(string(line))
		})
	}
}

// siScanBankRun runs the reproducer once on a fresh cluster and returns its
// scans with a wrong sum, its scans with fewer than 16 rows, and all scans.
func siScanBankRun(t *testing.T, cc string, seed int64) (torn, missing, scans int) {
	const accounts, balance = 16, 1000
	c := NewCluster(Config{CC: cc, LockWaitTimeout: 2 * time.Second, RecycleInterval: 10 * time.Millisecond})
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := c.CreateSpace("bank")
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("acct%02d", i)) }
	for i := 0; i < accounts; i++ {
		put(t, c.Node(1), sp, string(key(i)), strconv.Itoa(balance))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		n, rng := c.Node(1+w%2), rand.New(rand.NewSource(seed*100+int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				lo, hi := rng.Intn(accounts), rng.Intn(accounts)
				if lo == hi {
					continue
				}
				lo, hi = min(lo, hi), max(lo, hi)
				soakTransfer(n, sp, key(lo), key(hi))
			}
		}()
	}

	n1 := c.Node(1)
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); {
		tx, err := n1.BeginIso(SnapshotIsolation)
		if err != nil {
			continue
		}
		rows, err := tx.Scan(sp, nil, nil, 0)
		tx.Commit()
		if err != nil {
			continue
		}
		scans++
		sum := 0
		for _, kv := range rows {
			v, _ := strconv.Atoi(string(kv.Value))
			sum += v
		}
		switch {
		case len(rows) < accounts:
			missing++
		case sum != accounts*balance:
			torn++
		}
	}
	stop.Store(true)
	wg.Wait()
	return torn, missing, scans
}

// soakTransfer moves 1 from lo to hi in one transaction, locking lo first.
func soakTransfer(n *Node, sp common.SpaceID, lo, hi []byte) {
	tx, err := n.Begin()
	if err != nil {
		return
	}
	a, err := tx.GetForUpdate(sp, lo)
	if err == nil {
		var b []byte
		if b, err = tx.GetForUpdate(sp, hi); err == nil {
			x, _ := strconv.Atoi(string(a))
			y, _ := strconv.Atoi(string(b))
			if err = tx.Update(sp, lo, []byte(strconv.Itoa(x-1))); err == nil {
				err = tx.Update(sp, hi, []byte(strconv.Itoa(y+1)))
			}
		}
	}
	if err != nil {
		tx.Rollback()
		return
	}
	tx.Commit()
}
