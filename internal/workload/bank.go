package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// Bank is the money-conservation workload the deployed-cluster smokes run:
// Accounts rows seeded with Seed each, and transfers that move money between
// two of them in one transaction, so the total never changes. A transfer may
// also insert a marker row whose value records it (from:to:amount); the
// markers present afterwards then say exactly what every balance must be.
type Bank struct {
	Space    uint32
	Accounts int
	Seed     int
}

func acctKey(i int) []byte { return []byte(fmt.Sprintf("acct-%03d", i)) }

// Load creates the bank table and (re)seeds every balance through node 0.
func (b *Bank) Load(db DB) error {
	var err error
	if b.Space, err = db.CreateTable("bank"); err != nil {
		return fmt.Errorf("create space: %w", err)
	}
	tx, err := db.Begin(0)
	if err != nil {
		return err
	}
	for i := 0; i < b.Accounts; i++ {
		if err := tx.Upsert(b.Space, acctKey(i), []byte(strconv.Itoa(b.Seed))); err != nil {
			_ = tx.Rollback()
			return fmt.Errorf("seed balance: %w", err)
		}
	}
	return tx.Commit()
}

// Transfer moves a random amount between two random accounts and commits.
// Row locks are taken in key order so transfers cannot deadlock each other.
// A non-empty marker is inserted as a row in the same transaction.
func (b *Bank) Transfer(tx wire.Tx, rng *rand.Rand, marker string) error {
	i, j := rng.Intn(b.Accounts), rng.Intn(b.Accounts)
	for i == j {
		j = rng.Intn(b.Accounts)
	}
	if i > j {
		i, j = j, i
	}
	abort := func(err error) error { _ = tx.Rollback(); return err }
	vi, err := tx.GetForUpdate(b.Space, acctKey(i))
	if err != nil {
		return abort(err)
	}
	vj, err := tx.GetForUpdate(b.Space, acctKey(j))
	if err != nil {
		return abort(err)
	}
	bi, _ := strconv.Atoi(string(vi))
	bj, _ := strconv.Atoi(string(vj))
	amt := rng.Intn(10) + 1
	if err := tx.Update(b.Space, acctKey(i), []byte(strconv.Itoa(bi-amt))); err != nil {
		return abort(err)
	}
	if err := tx.Update(b.Space, acctKey(j), []byte(strconv.Itoa(bj+amt))); err != nil {
		return abort(err)
	}
	if marker != "" {
		if err := tx.Insert(b.Space, []byte(marker), []byte(fmt.Sprintf("%d:%d:%d", i, j, amt))); err != nil {
			return abort(err)
		}
	}
	return tx.Commit()
}

// balances reads every account through tx.
func (b *Bank) balances(tx wire.Tx) (map[int]int, error) {
	accts, err := tx.Scan(b.Space, []byte("acct-"), []byte("acct-\xff"), 0)
	if err != nil {
		return nil, err
	}
	balances := make(map[int]int, len(accts))
	for _, kv := range accts {
		var i int
		if _, err := fmt.Sscanf(string(kv.Key), "acct-%d", &i); err != nil {
			return nil, fmt.Errorf("unparseable account key %q: %w", kv.Key, common.ErrCorrupt)
		}
		if balances[i], err = strconv.Atoi(string(kv.Value)); err != nil {
			return nil, fmt.Errorf("account %s holds %q: %w", kv.Key, kv.Value, common.ErrCorrupt)
		}
	}
	return balances, nil
}

// snapshot begins the read-only transaction Sum and FinalState read through:
// at snapshot isolation (wire iso 1), so transfers committed before its read
// view are fully visible and what it reads is exact at any moment. done ends
// it — with a commit, since a rollback counts as an abort in the engine's
// statistics.
func snapshot(be wire.Backend) (tx wire.Tx, done func() error, err error) {
	if tx, err = be.Begin(1, 0); err != nil {
		return nil, nil, err
	}
	return tx, func() error {
		if err := tx.Commit(); err != nil && !errors.Is(err, common.ErrTxDone) {
			return err
		}
		return nil
	}, nil
}

// Sum is the conservation probe: the total of all balances under one
// snapshot, with the per-account detail for a violation dump.
func (b *Bank) Sum(be wire.Backend) (sum int, detail string, err error) {
	tx, done, err := snapshot(be)
	if err != nil {
		return 0, "", err
	}
	defer tx.Rollback()
	balances, err := b.balances(tx)
	if err != nil {
		return 0, "", err
	}
	if len(balances) != b.Accounts {
		return 0, "", fmt.Errorf("scan saw %d accounts, want %d: %w", len(balances), b.Accounts, common.ErrCorrupt)
	}
	var sb strings.Builder
	for i := 0; i < b.Accounts; i++ {
		sum += balances[i]
		fmt.Fprintf(&sb, "%s=%d ", acctKey(i), balances[i])
	}
	return sum, sb.String(), done()
}

// FinalState reads every balance and every marker row under ONE snapshot,
// so Audit compares mutually consistent data.
func (b *Bank) FinalState(be wire.Backend) (balances map[int]int, markers map[string]string, err error) {
	tx, done, err := snapshot(be)
	if err != nil {
		return nil, nil, err
	}
	defer tx.Rollback()
	if balances, err = b.balances(tx); err != nil {
		return nil, nil, err
	}
	marks, err := tx.Scan(b.Space, []byte("mark:"), []byte("mark:\xff"), 0)
	if err != nil {
		return nil, nil, err
	}
	markers = make(map[string]string, len(marks))
	for _, kv := range marks {
		markers[string(kv.Key)] = string(kv.Value)
	}
	return balances, markers, done()
}

// Audit is the verdict on a final state: the violations, in the words the
// chaos harness prints, or nil. mustPresent are the markers of acknowledged
// (or resolved-committed) transfers, mustAbsent those of transfers known to
// have rolled back.
func (b *Bank) Audit(balances map[int]int, markers map[string]string, mustPresent, mustAbsent []string) []string {
	var out []string
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	final := 0
	for _, v := range balances {
		final += v
	}
	if want := b.Accounts * b.Seed; final != want {
		fail("final sum %d, want %d", final, want)
	}

	// Marker fate.
	lost, leaked := 0, 0
	for _, mk := range mustPresent {
		if _, ok := markers[mk]; !ok {
			if lost++; lost <= 5 {
				fail("committed transaction lost: marker %s absent", mk)
			}
		}
	}
	for _, mk := range mustAbsent {
		if val, ok := markers[mk]; ok {
			if leaked++; leaked <= 5 {
				fail("rolled-back transaction published: marker %s present (value %s)", mk, val)
			}
		}
	}
	if lost > 5 || leaked > 5 {
		fail("…and %d more lost / %d more leaked markers", max(0, lost-5), max(0, leaked-5))
	}

	// Forensic replay: the present markers fully determine what every
	// balance should be. A mismatch pinpoints a half-applied transaction —
	// one leg visible without the other — or a whole transfer applied
	// without its marker, which a total-sum check alone would hide.
	expect := make([]int, b.Accounts)
	for i := range expect {
		expect[i] = b.Seed
	}
	replayOK := true
	for mk, val := range markers {
		var from, to, amt int
		if _, err := fmt.Sscanf(val, "%d:%d:%d", &from, &to, &amt); err != nil ||
			from < 0 || from >= b.Accounts || to < 0 || to >= b.Accounts {
			fail("marker %s carries malformed transfer %q", mk, val)
			replayOK = false
			continue
		}
		expect[from] -= amt
		expect[to] += amt
	}
	if !replayOK {
		return out
	}
	for i, want := range expect {
		got, ok := balances[i]
		switch {
		case !ok:
			fail("account %03d missing from the final snapshot", i)
		case got != want:
			fail("account %03d holds %d but the %d present markers replay to %d (drift %+d)",
				i, got, len(markers), want, got-want)
		}
	}
	return out
}

// AmbiguousTransfer is a transfer whose commit outcome the client could not
// learn; G is the token to resolve it with (wire.Client.ResolveTx).
type AmbiguousTransfer struct {
	G      common.GTrxID
	Marker string
}

// BankRun is a set of transfer workers in flight, each on its own session.
// The exported fields are the run's ledger; read them after Stop.
type BankRun struct {
	// Attempts counts transfers begun; Acked, Ambiguous and Failed hold the
	// markers ("" in a marker-less run) of those that were acknowledged,
	// left in doubt, or rolled back.
	Attempts  int
	Acked     []string
	Ambiguous []AmbiguousTransfer
	Failed    []string
	// Unconnected holds one error per worker that never got a session: the
	// run carried fewer clients than asked for, which the caller must report.
	Unconnected []error

	bank    *Bank
	markers bool
	mu      sync.Mutex
	errs    map[string]int // failed-attempt causes, for stall diagnostics
	stop    chan struct{}
	wg      sync.WaitGroup
}

// Start launches workers transfer loops; worker w opens its own session
// with connect(w) and draws from a generator seeded by seed and w.
func (b *Bank) Start(workers int, seed int64, markers bool, connect func(worker int) (wire.Backend, error)) *BankRun {
	r := &BankRun{bank: b, markers: markers, errs: make(map[string]int), stop: make(chan struct{})}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.worker(w, seed, connect)
	}
	return r
}

// Stop ends the run and waits for every worker.
func (r *BankRun) Stop() {
	close(r.stop)
	r.wg.Wait()
}

// Commits reports the acknowledged transfers so far (safe mid-run).
func (r *BankRun) Commits() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.Acked))
}

// DumpErrs prints the failed-attempt causes seen so far (safe mid-run).
func (r *BankRun) DumpErrs() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for msg, n := range r.errs {
		fmt.Printf("    %5dx %s\n", n, msg)
	}
}

func (r *BankRun) worker(id int, seed int64, connect func(int) (wire.Backend, error)) {
	defer r.wg.Done()
	be, err := connect(id)
	if err != nil {
		r.mu.Lock()
		r.Unconnected = append(r.Unconnected, fmt.Errorf("worker %d: %w", id, err))
		r.mu.Unlock()
		return
	}
	if c, ok := be.(interface{ Close() }); ok {
		defer c.Close() // a dialed session ends with its worker
	}
	rng := rand.New(rand.NewSource(seed + int64(id)*7919))
	for seq := 0; ; seq++ {
		select {
		case <-r.stop:
			return
		default:
		}
		marker := ""
		if r.markers {
			marker = fmt.Sprintf("mark:%d:%d", id, seq)
		}
		tx, err := be.Begin(0, 2*time.Second)
		if err == nil {
			err = r.bank.Transfer(tx, rng, marker)
		}
		r.mu.Lock()
		r.Attempts++
		switch {
		case err == nil:
			r.Acked = append(r.Acked, marker)
		case errors.Is(err, common.ErrCommitAmbiguous):
			// In doubt; resolvable only through the global id.
			var amb *wire.AmbiguousCommitError
			if errors.As(err, &amb) && !amb.GTrx.Zero() {
				r.Ambiguous = append(r.Ambiguous, AmbiguousTransfer{G: amb.GTrx, Marker: marker})
			}
			err = nil
		default:
			// Rolled back (conflict, transient fault, failover): the
			// marker must never surface.
			r.Failed = append(r.Failed, marker)
			if msg := err.Error(); len(r.errs) < 50 {
				r.errs[msg[:min(len(msg), 120)]]++
			}
		}
		r.mu.Unlock()
		if err != nil {
			// Brief pause keeps retry storms off a mid-failover gateway.
			time.Sleep(5 * time.Millisecond)
		}
	}
}
