package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// TATP implements the Telecom Application Transaction Processing benchmark
// (§5.2, Figure 8): subscriber-keyed tables and the standard 7-transaction
// mix (80% reads / 20% writes). Subscribers are range-partitioned across
// nodes, which is why the paper sees linear scalability: each data page ends
// up exclusively accessed by one node.
type TATP struct {
	// SubscribersPerNode (paper: 20M; scale down).
	SubscribersPerNode int
	// Nodes in the cluster.
	Nodes int
	// Pacer injects per-statement service time (figure harness).
	Pacer

	subscriber, accessInfo, specialFacility, callForwarding uint32
}

// DefaultTATP returns a box-scale configuration.
func DefaultTATP(nodes int) *TATP {
	return &TATP{SubscribersPerNode: 4000, Nodes: nodes}
}

func (t *TATP) total() int { return t.SubscribersPerNode * t.Nodes }

// subKey returns the subscriber key; subscribers are range-partitioned so
// node i owns [i*SubscribersPerNode, (i+1)*SubscribersPerNode).
func subKey(id int) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(id))
}

// Load creates and populates the four TATP tables through their home nodes.
func (t *TATP) Load(db DB) error {
	var err error
	mk := func(name string) uint32 {
		if err != nil {
			return 0
		}
		var tab uint32
		tab, err = db.CreateTable("tatp_" + name)
		return tab
	}
	t.subscriber = mk("subscriber")
	t.accessInfo = mk("access_info")
	t.specialFacility = mk("special_facility")
	t.callForwarding = mk("call_forwarding")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(11))
	const batch = 200
	for node := 0; node < t.Nodes; node++ {
		lo := node * t.SubscribersPerNode
		hi := lo + t.SubscribersPerNode
		for base := lo; base < hi; base += batch {
			tx, err := db.Begin(node % db.NodeCount())
			if err != nil {
				return err
			}
			for s := base; s < base+batch && s < hi; s++ {
				key := subKey(s)
				if err := tx.Insert(t.subscriber, key,
					[]byte(fmt.Sprintf(`{"sub":%d,"bit1":%d,"vlr":%d}`, s, rng.Intn(2), rng.Intn(1<<16)))); err != nil {
					tx.Rollback()
					return err
				}
				if err := tx.Insert(t.accessInfo, key, []byte(`{"a1":1,"a2":2}`)); err != nil {
					tx.Rollback()
					return err
				}
				if err := tx.Insert(t.specialFacility, key, []byte(`{"sf":1,"active":1}`)); err != nil {
					tx.Rollback()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TxFunc returns the standard TATP mix for node/thread. Subscribers are
// drawn from the node's own partition (the paper's well-partitioned setup).
func (t *TATP) TxFunc(node, thread int) TxFunc {
	rng := rand.New(rand.NewSource(int64(node)*6151 + int64(thread)*3079 + 17))
	return func(db DB, nd int) error {
		lo := (nd % t.Nodes) * t.SubscribersPerNode
		s := lo + rng.Intn(t.SubscribersPerNode)
		key := subKey(s)
		tx, err := db.Begin(nd)
		if err != nil {
			return err
		}
		abort := func(err error) error { tx.Rollback(); return err }
		ps := t.Pacer.begin()
		ps.pace()
		switch p := rng.Intn(100); {
		case p < 35: // GetSubscriberData
			if _, err := tx.Get(t.subscriber, key); err != nil {
				return abort(err)
			}
		case p < 45: // GetNewDestination
			if _, err := tx.Get(t.specialFacility, key); err != nil && !isNotFound(err) {
				return abort(err)
			}
			if _, err := tx.Get(t.callForwarding, key); err != nil && !isNotFound(err) {
				return abort(err)
			}
		case p < 80: // GetAccessData
			if _, err := tx.Get(t.accessInfo, key); err != nil {
				return abort(err)
			}
		case p < 82: // UpdateSubscriberData
			if err := tx.Update(t.specialFacility, key, []byte(`{"sf":1,"active":0}`)); err != nil && !isNotFound(err) {
				return abort(err)
			}
		case p < 96: // UpdateLocation
			if err := tx.Update(t.subscriber, key,
				[]byte(fmt.Sprintf(`{"sub":%d,"vlr":%d}`, s, rng.Intn(1<<16)))); err != nil {
				return abort(err)
			}
		case p < 98: // InsertCallForwarding
			if err := tx.Insert(t.callForwarding, key, []byte(`{"start":8,"end":17}`)); err != nil && !isKeyExists(err) {
				return abort(err)
			}
		default: // DeleteCallForwarding
			if err := tx.Delete(t.callForwarding, key); err != nil && !isNotFound(err) {
				return abort(err)
			}
		}
		return tx.Commit()
	}
}
