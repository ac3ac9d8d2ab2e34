// Package standby implements the cross-region high-availability of §3:
// "PolarDB-MP also incorporates a standby node to ensure high availability
// across regions. Changes occurring in the primary cluster are synchronized
// to the standby cluster using the write-ahead log."
//
// The standby region keeps its own shared store. Sync ships every primary
// node's WAL stream byte-for-byte (plus page images and metadata, the
// equivalent of continuous backup shipping), so the standby store always
// holds a recoverable prefix of the primary's history. Promotion after a
// regional failure is exactly full-cluster recovery over the standby store:
// the shipped logs are merged in LLSN order, uncommitted transactions are
// rolled back, and a fresh cluster starts on the result. Because page
// images are only ever *older* than the shipped logs or byte-identical to
// replayed state, the LLSN idempotence rule (§4.4) makes any interleaving
// of page and log shipping safe.
package standby

import (
	"fmt"
	"sync"
	"time"

	"polardbmp/internal/common"
	"polardbmp/internal/core"
	"polardbmp/internal/storage"
)

// Standby replicates a primary region's shared store into a local one.
type Standby struct {
	src   storage.API
	local *storage.Store

	mu       sync.Mutex
	shipped  map[common.NodeID]common.LSN
	promoted bool

	stopOnce sync.Once
	stop     chan struct{}
	done     sync.WaitGroup
}

// New attaches a standby to the primary region's shared store. The standby
// store carries no injected latency of its own here; cross-region transfer
// cost is the Sync cadence.
func New(src storage.API) *Standby {
	return &Standby{
		src:     src,
		local:   storage.New(storage.Latency{}),
		shipped: make(map[common.NodeID]common.LSN),
		stop:    make(chan struct{}),
	}
}

// Sync ships everything new: log bytes per stream, page images, metadata.
// It is safe to call concurrently with primary traffic; each call captures
// a consistent durable prefix.
func (s *Standby) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return fmt.Errorf("standby: already promoted: %w", common.ErrClosed)
	}
	// Logs first: the WAL is the source of truth; pages shipped later can
	// only be newer than these logs, never ahead of un-shipped ones in a
	// way replay can't fix (LLSN idempotence).
	for _, node := range s.src.LogNodes() {
		from, ok := s.shipped[node]
		if !ok {
			from = s.src.LogStartLSN(node)
		}
		// The primary may have truncated past our position (checkpoint
		// while the standby lagged); the page shipping below covers the
		// truncated history, so fast-forward.
		if base := s.src.LogStartLSN(node); base > from {
			from = base
			s.local.LogTruncate(node, base)
		}
		durable := s.src.LogDurableLSN(node)
		for from < durable {
			buf := make([]byte, 256*1024)
			n, err := s.src.LogRead(node, from, buf)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if err := s.local.LogShip(node, from, buf[:n]); err != nil {
				return err
			}
			from += common.LSN(n)
		}
		s.shipped[node] = from
	}
	for _, id := range s.src.PageIDs() {
		img, err := s.src.ReadPage(id)
		if err != nil {
			continue
		}
		if err := s.local.WritePage(id, img); err != nil {
			return err
		}
	}
	for _, k := range s.src.MetaKeys() {
		s.local.PutMeta(k, s.src.GetMeta(k))
	}
	return nil
}

// Run ships continuously at the given interval until Stop or promotion.
func (s *Standby) Run(interval time.Duration) {
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				_ = s.Sync()
			}
		}
	}()
}

// Stop halts continuous shipping.
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.done.Wait()
}

// Lag returns how many durable log bytes the standby is behind, summed over
// all streams.
func (s *Standby) Lag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag int64
	for _, node := range s.src.LogNodes() {
		from, ok := s.shipped[node]
		if !ok {
			from = s.src.LogStartLSN(node)
		}
		if d := s.src.LogDurableLSN(node); d > from {
			lag += int64(d - from)
		}
	}
	return lag
}

// Promote turns the standby into a fresh primary cluster after a regional
// failure: final catch-up sync (best effort — the primary region may be
// gone), full-cluster recovery over the shipped logs, then a new cluster
// over the recovered store. The caller adds nodes to it.
func (s *Standby) Promote(cfg core.Config) (*core.Cluster, error) {
	s.Stop()
	_ = s.Sync() // best effort; ignore a dead primary region
	s.mu.Lock()
	s.promoted = true
	s.mu.Unlock()

	c := core.NewClusterWithStore(cfg, s.local)
	if err := c.RecoverAll(); err != nil {
		return nil, fmt.Errorf("standby: promotion recovery: %w", err)
	}
	return c, nil
}
