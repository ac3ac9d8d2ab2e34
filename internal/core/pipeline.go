package core

import (
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/wal"
)

// Pipelined group commit (DESIGN.md §14). A commit's durability point is a
// storage log-sync round; classically each committer that finds the durable
// frontier behind runs a round itself and pays the full round latency.
// Because storage marks durable *everything appended before a round
// completes* (wal.Writer group-commit contract), rounds can instead be kept
// in flight continuously by a dedicated syncer: a committer that appends
// while a round is running rides that round's completion and pays only the
// residual. The syncer keeps up to pipeDepth rounds in flight, started half
// a round apart, so a completion lands every round/pipeDepth and the
// expected residual drops to round/(2·pipeDepth). One syncer per cluster —
// rather than per stream — keeps the goroutine and timer load flat: the
// per-node log streams are independent files that a real log store flushes
// concurrently, so a single latency charge (storage.LogSyncBatch) covers one
// round for every hot stream.

const (
	// pipeHotWindow is how long after its last append a stream keeps
	// receiving speculative rounds, so the next commit in a steady stream
	// lands inside one. Past the window the stream is idle and costs
	// nothing.
	pipeHotWindow = 250 * time.Millisecond
	// pipeFastRound: below this configured round latency the pipeline buys
	// nothing over self-run syncs (an unthrottled in-memory store) and the
	// syncer is never started.
	pipeFastRound = 50 * time.Microsecond
	// pipeDepth is how many staggered rounds the syncer keeps in flight.
	// Completions land every round/pipeDepth, so the expected rider residual
	// is round/(2·pipeDepth).
	pipeDepth = 4
)

// startLogPipeline launches the cluster's group-commit syncer. It stays off
// when the store cannot report its round latency (remote satellite stores)
// or when rounds are cheaper than the scheduling cost of riding one.
func (c *Cluster) startLogPipeline() {
	type syncLatency interface{ SyncLatency() time.Duration }
	sl, ok := c.store.(syncLatency)
	if !ok || sl.SyncLatency() < pipeFastRound {
		return
	}
	c.pipeWake = make(chan struct{}, 1)
	c.pipeStop = make(chan struct{})
	c.pipeStagger = sl.SyncLatency() / pipeDepth
	go c.logPipeline()
}

// stopLogPipeline terminates the syncer (idempotent; in-flight rounds drain
// on their own).
func (c *Cluster) stopLogPipeline() {
	if c.pipeStop != nil {
		c.pipeOnce.Do(func() { close(c.pipeStop) })
	}
}

// logPipeline is the syncer loop: while any stream is hot it launches a sync
// round over every hot stream each stagger interval, keeping pipeDepth
// rounds in flight; with nothing hot it parks on the writers' append kick.
func (c *Cluster) logPipeline() {
	type syncBatcher interface {
		LogSyncBatch([]common.NodeID, []common.LSN) bool
	}
	batcher, _ := c.store.(syncBatcher)
	inflight := make(chan struct{}, pipeDepth)
	var hot []*wal.Writer
	var hotIDs []common.NodeID
	timer := time.NewTimer(pipeHotWindow)
	defer timer.Stop()
	for {
		select {
		case <-c.pipeStop:
			return
		default:
		}
		hot, hotIDs = hot[:0], hotIDs[:0]
		c.mu.Lock()
		for id, n := range c.nodes {
			if n.wal.PipelineHot(pipeHotWindow) {
				hot = append(hot, n.wal)
				hotIDs = append(hotIDs, id)
			}
		}
		c.mu.Unlock()
		if len(hot) == 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(pipeHotWindow)
			select {
			case <-c.pipeStop:
				return
			case <-c.pipeWake:
			case <-timer.C:
			}
			continue
		}
		inflight <- struct{}{} // cap staggered rounds at pipeDepth
		ws := append([]*wal.Writer(nil), hot...)
		ids := append([]common.NodeID(nil), hotIDs...)
		durables := make([]common.LSN, len(ws))
		for _, w := range ws {
			w.BeginRound()
		}
		go func() {
			defer func() { <-inflight }()
			c.syncRound(batcher, ws, ids, durables)
			c.pipeRounds.Add(1)
		}()
		// Stagger gate: hold the next round back until at least
		// round/pipeDepth has passed since this one started, but pace on the
		// writers' append kicks rather than a timer — a sub-millisecond
		// sleep oversleeps to timer granularity under load, which would
		// collapse the stagger back to a full round, while append kicks
		// arrive far more often than the stagger and cost nothing. Waiting
		// on kicks is also correct at the edge: with no further appends
		// there is nothing left to cover (any append kicks before or after
		// this round's durable capture; before is covered by it, after
		// lands here and opens the next round).
		start := time.Now()
		for {
			select {
			case <-c.pipeStop:
				return
			case <-c.pipeWake:
			}
			if time.Since(start) >= c.pipeStagger {
				break
			}
		}
	}
}

// syncRound runs one log-sync round over the given streams and publishes
// each stream's new durable frontier.
func (c *Cluster) syncRound(batcher interface {
	LogSyncBatch([]common.NodeID, []common.LSN) bool
}, ws []*wal.Writer, ids []common.NodeID, durables []common.LSN) {
	if batcher != nil && batcher.LogSyncBatch(ids, durables) {
		for i, w := range ws {
			w.EndRound(durables[i])
		}
		return
	}
	if len(ws) == 1 {
		ws[0].EndRound(c.store.LogSync(ids[0]))
		return
	}
	// Per-stream rounds (fault injection): a stalled stream must not hold
	// back the others' durability, so each round ends as its own stream's
	// sync returns.
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i].EndRound(c.store.LogSync(ids[i]))
		}(i)
	}
	wg.Wait()
}
