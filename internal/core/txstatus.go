// Transaction-outcome resolution: the server side of commit-ambiguity
// recovery. A client whose connection died after sending COMMIT cannot know
// whether the server finished the pipeline; the wire layer hands it
// ErrCommitAmbiguous and the transaction's GTrxID, and resolution lands here.
// The TIT alone cannot answer — a recycled slot (CSNMin) means "committed and
// visible to all" OR "aborted" — so every process keeps a bounded journal of
// recent transaction outcomes (committed CTS or abort), fed by the commit
// pipeline, rollback, and the takeover scan of a dead peer's log. Resolution
// walks: local journal → owner's TIT → owner's journal over the fabric →
// membership fate rule → the seed's post-takeover journal.
package core

import (
	"fmt"
	"sync"

	"polardbmp/internal/common"
	"polardbmp/internal/wire"
)

// TxOutcome is a resolved transaction fate.
type TxOutcome uint8

const (
	// TxOutcomeUnknown means no layer could decide: the transaction finished
	// so long ago that its outcome left every journal window. Callers treat
	// it as a resolution failure, never as a guess.
	TxOutcomeUnknown TxOutcome = iota
	// TxOutcomeActive means the transaction has not finished yet (or its
	// owner is fenced mid-takeover and the fate is pending); poll again.
	TxOutcomeActive
	// TxOutcomeCommitted means the commit record is durable and the CTS
	// published; the reported CTS is CSNMin for a read-only commit.
	TxOutcomeCommitted
	// TxOutcomeAborted means the transaction rolled back (including in-doubt
	// transactions a survivor's takeover resolved by removal).
	TxOutcomeAborted
)

func (o TxOutcome) String() string {
	switch o {
	case TxOutcomeActive:
		return "active"
	case TxOutcomeCommitted:
		return "committed"
	case TxOutcomeAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// ServiceTxStatus is the per-node fabric RPC resolving one of the node's own
// transactions from its journal + TIT. Request: [GTrxID]. Response:
// [status][outcome u8][cts u64]. Registered on every node's endpoint, so a
// satellite's transactions are resolvable from any process (routed
// transitively through the seed like every other fabric verb).
const ServiceTxStatus = "core.txstatus"

// txJournalSize bounds the per-process outcome journal. The ring holds the
// most recent finished transactions — orders of magnitude more than can be
// in the commit-ambiguity window at once (the window is one connection's
// death-to-resolve latency).
const txJournalSize = 1 << 15

// txJournal is the bounded outcome journal: g → committed CTS, or 0 for
// aborted. Eviction is FIFO over a fixed ring so steady-state inserts reuse
// map cells instead of growing the table (the commit path records here and
// is allocation-budgeted in CI).
type txJournal struct {
	mu   sync.Mutex
	m    map[common.GTrxID]common.CSN
	ring []common.GTrxID
	next int
}

func (j *txJournal) record(g common.GTrxID, cts common.CSN) {
	if g.Zero() {
		return
	}
	j.mu.Lock()
	if j.m == nil {
		j.m = make(map[common.GTrxID]common.CSN, txJournalSize)
		j.ring = make([]common.GTrxID, txJournalSize)
	}
	if _, ok := j.m[g]; !ok {
		if old := j.ring[j.next]; !old.Zero() {
			delete(j.m, old)
		}
		j.ring[j.next] = g
		j.next = (j.next + 1) % txJournalSize
	}
	j.m[g] = cts
	j.mu.Unlock()
}

func (j *txJournal) lookup(g common.GTrxID) (common.CSN, bool) {
	j.mu.Lock()
	cts, ok := j.m[g]
	j.mu.Unlock()
	return cts, ok
}

// journalOutcome maps a journal entry to its outcome.
func journalOutcome(cts common.CSN) (TxOutcome, common.CSN) {
	if cts == 0 {
		return TxOutcomeAborted, 0
	}
	return TxOutcomeCommitted, cts
}

// TxStatus resolves the fate of transaction g from anywhere in the cluster.
// It never guesses: the answer is TxOutcomeCommitted/TxOutcomeAborted only
// when a journal entry or a published CTS proves it, TxOutcomeActive while
// the transaction (or its owner's takeover) is still in flight, and
// TxOutcomeUnknown when the outcome predates every journal window. The
// returned CSN is the commit timestamp for committed transactions.
func (c *Cluster) TxStatus(g common.GTrxID) (TxOutcome, common.CSN, error) {
	if g.Zero() {
		return TxOutcomeUnknown, 0, fmt.Errorf("core: tx status: zero transaction id")
	}
	// 1. This process finished it recently (we host the owner, or a takeover
	//    here resolved it).
	if cts, ok := c.txlog.lookup(g); ok {
		out, cts := journalOutcome(cts)
		return out, cts, nil
	}
	c.mu.Lock()
	owner := c.nodes[g.Node]
	var probe *Node
	for id := common.NodeID(1); id < c.nextNode; id++ {
		if n := c.nodes[id]; n != nil && n.live.Load() {
			probe = n
			break
		}
	}
	c.mu.Unlock()
	// 2. We host the owning node: its journal already missed (shared with the
	//    cluster journal above), so the TIT is the ground truth.
	if owner != nil && owner.live.Load() {
		return owner.txStatusTIT(g)
	}
	// 3. The owner lives in another process: ask it directly (journal + TIT
	//    on its side). Transient fabric faults are retried.
	if out, cts, err := c.txStatusRemote(g); err == nil {
		return out, cts, nil
	}
	// 4. The owner's process is unreachable. While its takeover has not
	//    completed the fate is pending — the caller polls until a survivor
	//    resolves every in-flight transaction.
	if !c.recoveredPeer(g.Node) {
		return TxOutcomeActive, 0, nil
	}
	// 5. Recovered: the takeover recorded every reconstructed outcome in the
	//    seed's journal (step 1 on the seed; an admin hop from a satellite).
	if c.members != nil {
		if cts, ok := c.txlog.lookup(g); ok {
			out, cts := journalOutcome(cts)
			return out, cts, nil
		}
	} else if out, cts, err := c.txStatusSeed(g); err == nil && out != TxOutcomeUnknown {
		return out, cts, nil
	}
	// 6. Last resort: the TIT through any local node. A post-recovery
	//    recycled slot is honest ambiguity (finished, outcome aged out).
	if probe == nil {
		return TxOutcomeUnknown, 0, fmt.Errorf("core: tx status %v: no live local node", g)
	}
	return probe.txStatusTIT(g)
}

// txStatusTIT classifies g from the TIT state alone (Algorithm 1 semantics):
// a published CTS proves the commit, CSNMax means active or fenced-pending,
// and a recycled slot (CSNMin) is unresolvable here — the transaction
// finished, but committed-visible-to-all and aborted look identical.
func (n *Node) txStatusTIT(g common.GTrxID) (TxOutcome, common.CSN, error) {
	cts, err := n.tf.GetTrxCTS(g)
	if err != nil {
		return TxOutcomeUnknown, 0, err
	}
	switch cts {
	case common.CSNMax:
		return TxOutcomeActive, 0, nil
	case common.CSNMin:
		return TxOutcomeUnknown, 0, nil
	default:
		return TxOutcomeCommitted, cts, nil
	}
}

// handleTxStatus serves ServiceTxStatus for one hosted node: journal first
// (the cluster journal holds this process's outcomes), then the TIT.
func (n *Node) handleTxStatus(req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	g := rd.GTrx()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("core: tx status request: %w", err)
	}
	var out TxOutcome
	var cts common.CSN
	var err error
	if jcts, ok := n.c.txlog.lookup(g); ok {
		out, cts = journalOutcome(jcts)
	} else if out, cts, err = n.txStatusTIT(g); err != nil {
		return nil, err
	}
	return wire.AppendU64([]byte{uint8(out)}, uint64(cts)), nil
}

// txStatusRemote asks the owning node's process over the fabric.
func (c *Cluster) txStatusRemote(g common.GTrxID) (TxOutcome, common.CSN, error) {
	out, err := c.fabric.From(common.AnyNode).Call(g.Node, ServiceTxStatus, g.Marshal(nil))
	if err != nil {
		return TxOutcomeUnknown, 0, err
	}
	return decodeTxStatus(out)
}

// txStatusSeed asks the seed's admin service (satellite-side leg of step 5:
// the takeover that resolved a dead peer ran on the seed, so its journal
// holds the outcome).
func (c *Cluster) txStatusSeed(g common.GTrxID) (TxOutcome, common.CSN, error) {
	out, err := c.adminCall(g.Marshal([]byte{aopTxStatus}))
	if err != nil {
		return TxOutcomeUnknown, 0, fmt.Errorf("core: tx status %v at seed: %w", g, err)
	}
	return decodeTxStatus(out)
}

// decodeTxStatus decodes a tx-status result: [outcome u8][cts u64].
func decodeTxStatus(out []byte) (TxOutcome, common.CSN, error) {
	rd := wire.NewReader(out)
	outcome := TxOutcome(rd.U8())
	cts := common.CSN(rd.U64())
	if err := rd.Err(); err != nil {
		return TxOutcomeUnknown, 0, err
	}
	return outcome, cts, nil
}
