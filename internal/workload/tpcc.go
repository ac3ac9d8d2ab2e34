package workload

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"

	"polardbmp/internal/wire"
)

// TPCC implements the TPC-C benchmark (§5.2 "TPC-C performance within a
// large-scale cluster"): the full warehouse schema and the standard 5-
// transaction mix with zero think/keying time, as the paper configures it.
// Warehouses are range-partitioned across nodes (contiguous runs of
// warehouse ids share a home node, so their B-tree leaves are node-local);
// ~11% of transactions cross warehouses, exactly the property the paper
// leans on.
type TPCC struct {
	// Warehouses total (paper: large; scale down per box).
	Warehouses int
	// DistrictsPerWarehouse (spec: 10).
	Districts int
	// CustomersPerDistrict (spec: 3000; scale down).
	Customers int
	// ItemCount (spec: 100000; scale down).
	Items int
	// NewOrderOnly restricts the mix to New-Order (for pure tpmC runs).
	NewOrderOnly bool
	// Pacer injects per-statement service time (figure harness).
	Pacer
	// NewOrderCommits counts committed New-Order transactions (the tpmC
	// numerator of Figure 9).
	NewOrderCommits atomic.Int64

	warehouse, district, customer, stock, item, orders, orderLine, newOrder, history uint32
}

// DefaultTPCC returns a box-scale configuration.
func DefaultTPCC(warehouses int) *TPCC {
	return &TPCC{
		Warehouses: warehouses,
		Districts:  10,
		Customers:  60,
		Items:      500,
	}
}

// pad produces the fixed filler that stands in for TPC-C's wide rows
// (W_STREET/W_CITY/... on warehouse, likewise district): without it every
// warehouse row lands on one page and Payment's W_YTD update becomes a
// global hotspot no real TPC-C deployment has.
func pad(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'p'
	}
	return string(b)
}

func u64key(parts ...uint64) []byte {
	b := make([]byte, 0, len(parts)*8)
	for _, p := range parts {
		b = binary.BigEndian.AppendUint64(b, p)
	}
	return b
}

// jsonVal encodes a row payload; TPC-C rows are structured, and JSON keeps
// the harness honest about real row sizes without a schema layer.
func jsonVal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

type wRow struct {
	Name string  `json:"name"`
	Tax  float64 `json:"tax"`
	YTD  float64 `json:"ytd"`
	Pad  string  `json:"pad"`
}

type dRow struct {
	Name    string  `json:"name"`
	Tax     float64 `json:"tax"`
	YTD     float64 `json:"ytd"`
	NextOID uint64  `json:"next_o_id"`
	Pad     string  `json:"pad"`
}

type cRow struct {
	Name     string  `json:"name"`
	Credit   string  `json:"credit"`
	Balance  float64 `json:"balance"`
	Payments int     `json:"payments"`
	Pad      string  `json:"pad"`
}

type sRow struct {
	Quantity int    `json:"qty"`
	YTD      int    `json:"ytd"`
	Orders   int    `json:"orders"`
	Pad      string `json:"pad"`
}

type iRow struct {
	Name  string  `json:"name"`
	Price float64 `json:"price"`
}

type oRow struct {
	CID     uint64 `json:"c_id"`
	Lines   int    `json:"lines"`
	AllLoc  bool   `json:"all_local"`
	Carrier int    `json:"carrier"`
}

type olRow struct {
	IID    uint64  `json:"i_id"`
	Supply uint64  `json:"supply_w"`
	Qty    int     `json:"qty"`
	Amount float64 `json:"amount"`
}

// Load creates and populates the nine TPC-C tables.
func (t *TPCC) Load(db DB) error {
	var err error
	mk := func(name string) uint32 {
		if err != nil {
			return 0
		}
		var tab uint32
		tab, err = db.CreateTable("tpcc_" + name)
		return tab
	}
	t.warehouse = mk("warehouse")
	t.district = mk("district")
	t.customer = mk("customer")
	t.stock = mk("stock")
	t.item = mk("item")
	t.orders = mk("orders")
	t.orderLine = mk("order_line")
	t.newOrder = mk("new_order")
	t.history = mk("history")
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(7))
	// Items are global; load through node 0.
	const batch = 200
	loadBatched := func(node, count int, put func(tx wire.Tx, i int) error) error {
		for base := 0; base < count; base += batch {
			tx, err := db.Begin(node)
			if err != nil {
				return err
			}
			for i := base; i < base+batch && i < count; i++ {
				if err := put(tx, i); err != nil {
					tx.Rollback()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loadBatched(0, t.Items, func(tx wire.Tx, i int) error {
		return tx.Insert(t.item, u64key(uint64(i)), jsonVal(iRow{Name: fmt.Sprintf("item-%d", i), Price: 1 + rng.Float64()*99}))
	}); err != nil {
		return err
	}
	for w := 0; w < t.Warehouses; w++ {
		node := t.homeNode(w, db.NodeCount())
		if err := loadBatched(node, 1, func(tx wire.Tx, _ int) error {
			return tx.Insert(t.warehouse, u64key(uint64(w)), jsonVal(wRow{Name: fmt.Sprintf("w%d", w), Tax: 0.05, Pad: pad(1800)}))
		}); err != nil {
			return err
		}
		if err := loadBatched(node, t.Districts, func(tx wire.Tx, d int) error {
			return tx.Insert(t.district, u64key(uint64(w), uint64(d)), jsonVal(dRow{Name: fmt.Sprintf("d%d", d), Tax: 0.05, NextOID: 1, Pad: pad(900)}))
		}); err != nil {
			return err
		}
		for d := 0; d < t.Districts; d++ {
			d := d
			if err := loadBatched(node, t.Customers, func(tx wire.Tx, c int) error {
				return tx.Insert(t.customer, u64key(uint64(w), uint64(d), uint64(c)),
					jsonVal(cRow{Name: fmt.Sprintf("c%d", c), Credit: "GC", Balance: -10, Pad: pad(300)}))
			}); err != nil {
				return err
			}
		}
		if err := loadBatched(node, t.Items, func(tx wire.Tx, i int) error {
			return tx.Insert(t.stock, u64key(uint64(w), uint64(i)), jsonVal(sRow{Quantity: 50 + rng.Intn(50), Pad: pad(150)}))
		}); err != nil {
			return err
		}
	}
	return nil
}

// homeNode maps a warehouse to its home primary: contiguous ranges, so
// adjacent warehouses (and their adjacent B-tree leaves) share a node.
func (t *TPCC) homeNode(w, nodes int) int {
	per := (t.Warehouses + nodes - 1) / nodes
	n := w / per
	if n >= nodes {
		n = nodes - 1
	}
	return n
}

// TxFunc returns the standard-mix transaction generator for node/thread:
// 45% New-Order, 43% Payment, 4% each Order-Status / Delivery / Stock-Level.
func (t *TPCC) TxFunc(node, thread int) TxFunc {
	rng := rand.New(rand.NewSource(int64(node)*7907 + int64(thread)*104729 + 3))
	return func(db DB, nd int) error {
		if t.NewOrderOnly {
			return t.NewOrder(db, nd, rng)
		}
		switch p := rng.Intn(100); {
		case p < 45:
			return t.NewOrder(db, nd, rng)
		case p < 88:
			return t.Payment(db, nd, rng)
		case p < 92:
			return t.OrderStatus(db, nd, rng)
		case p < 96:
			return t.Delivery(db, nd, rng)
		default:
			return t.StockLevel(db, nd, rng)
		}
	}
}

// homeWarehouse picks a warehouse homed on node nd (range partitioning).
func (t *TPCC) homeWarehouse(rng *rand.Rand, nd, nodes int) int {
	if t.Warehouses <= nodes {
		return nd % t.Warehouses
	}
	per := (t.Warehouses + nodes - 1) / nodes
	lo := nd * per
	hi := lo + per
	if hi > t.Warehouses {
		hi = t.Warehouses
	}
	if lo >= hi {
		return nd % t.Warehouses
	}
	return lo + rng.Intn(hi-lo)
}

// NewOrder runs one New-Order transaction on node nd (tpmC unit). Per spec,
// ~1% of order lines reference a remote warehouse's stock, giving the ~10%
// cross-warehouse transaction rate the paper cites.
func (t *TPCC) NewOrder(db DB, nd int, rng *rand.Rand) error {
	tx, err := db.Begin(nd)
	if err != nil {
		return err
	}
	abort := func(err error) error { tx.Rollback(); return err }
	ps := t.Pacer.begin()

	w := t.homeWarehouse(rng, nd, db.NodeCount())
	d := rng.Intn(t.Districts)
	c := rng.Intn(t.Customers)

	// District: read and bump next order id (the per-district hotspot) —
	// a locking read, or two New-Orders would allocate the same o_id.
	dKey := u64key(uint64(w), uint64(d))
	dRaw, err := tx.GetForUpdate(t.district, dKey)
	if err != nil {
		return abort(err)
	}
	var dist dRow
	if err := json.Unmarshal(dRaw, &dist); err != nil {
		return abort(err)
	}
	ps.pace()
	oid := dist.NextOID
	dist.NextOID++
	if err := tx.Update(t.district, dKey, jsonVal(dist)); err != nil {
		return abort(err)
	}

	// Customer + warehouse reads.
	if _, err := tx.Get(t.customer, u64key(uint64(w), uint64(d), uint64(c))); err != nil {
		return abort(err)
	}
	if _, err := tx.Get(t.warehouse, u64key(uint64(w))); err != nil {
		return abort(err)
	}

	lines := 5 + rng.Intn(11)
	allLocal := true
	for l := 0; l < lines; l++ {
		item := rng.Intn(t.Items)
		supplyW := w
		if rng.Intn(100) == 0 && t.Warehouses > 1 { // 1% remote per line
			supplyW = rng.Intn(t.Warehouses)
			if supplyW != w {
				allLocal = false
			}
		}
		iRaw, err := tx.Get(t.item, u64key(uint64(item)))
		if err != nil {
			return abort(err)
		}
		var it iRow
		if err := json.Unmarshal(iRaw, &it); err != nil {
			return abort(err)
		}
		sKey := u64key(uint64(supplyW), uint64(item))
		sRaw, err := tx.GetForUpdate(t.stock, sKey)
		if err != nil {
			return abort(err)
		}
		var st sRow
		if err := json.Unmarshal(sRaw, &st); err != nil {
			return abort(err)
		}
		ps.pace()
		qty := 1 + rng.Intn(10)
		if st.Quantity >= qty+10 {
			st.Quantity -= qty
		} else {
			st.Quantity = st.Quantity - qty + 91
		}
		st.YTD += qty
		st.Orders++
		if err := tx.Update(t.stock, sKey, jsonVal(st)); err != nil {
			return abort(err)
		}
		olKey := u64key(uint64(w), uint64(d), oid, uint64(l))
		if err := tx.Insert(t.orderLine, olKey,
			jsonVal(olRow{IID: uint64(item), Supply: uint64(supplyW), Qty: qty, Amount: it.Price * float64(qty)})); err != nil {
			return abort(err)
		}
	}
	oKey := u64key(uint64(w), uint64(d), oid)
	if err := tx.Insert(t.orders, oKey, jsonVal(oRow{CID: uint64(c), Lines: lines, AllLoc: allLocal})); err != nil {
		return abort(err)
	}
	if err := tx.Insert(t.newOrder, oKey, []byte("1")); err != nil {
		return abort(err)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	t.NewOrderCommits.Add(1)
	return nil
}

// Payment updates warehouse/district YTD and the customer balance; 15% of
// payments come from a remote customer (cross-warehouse write).
func (t *TPCC) Payment(db DB, nd int, rng *rand.Rand) error {
	tx, err := db.Begin(nd)
	if err != nil {
		return err
	}
	abort := func(err error) error { tx.Rollback(); return err }
	ps := t.Pacer.begin()
	w := t.homeWarehouse(rng, nd, db.NodeCount())
	d := rng.Intn(t.Districts)
	cw, cd := w, d
	if rng.Intn(100) < 15 && t.Warehouses > 1 {
		cw = rng.Intn(t.Warehouses)
		cd = rng.Intn(t.Districts)
	}
	c := rng.Intn(t.Customers)
	amount := 1 + rng.Float64()*4999

	wKey := u64key(uint64(w))
	wRaw, err := tx.GetForUpdate(t.warehouse, wKey)
	if err != nil {
		return abort(err)
	}
	var wh wRow
	if err := json.Unmarshal(wRaw, &wh); err != nil {
		return abort(err)
	}
	wh.YTD += amount
	if err := tx.Update(t.warehouse, wKey, jsonVal(wh)); err != nil {
		return abort(err)
	}

	dKey := u64key(uint64(w), uint64(d))
	dRaw, err := tx.GetForUpdate(t.district, dKey)
	if err != nil {
		return abort(err)
	}
	var dist dRow
	if err := json.Unmarshal(dRaw, &dist); err != nil {
		return abort(err)
	}
	dist.YTD += amount
	if err := tx.Update(t.district, dKey, jsonVal(dist)); err != nil {
		return abort(err)
	}

	cKey := u64key(uint64(cw), uint64(cd), uint64(c))
	cRaw, err := tx.GetForUpdate(t.customer, cKey)
	if err != nil {
		return abort(err)
	}
	var cust cRow
	if err := json.Unmarshal(cRaw, &cust); err != nil {
		return abort(err)
	}
	ps.pace()
	cust.Balance -= amount
	cust.Payments++
	if err := tx.Update(t.customer, cKey, jsonVal(cust)); err != nil {
		return abort(err)
	}
	hKey := u64key(uint64(cw), uint64(cd), uint64(c), uint64(rng.Int63()))
	if err := tx.Insert(t.history, hKey, jsonVal(map[string]float64{"amount": amount})); err != nil {
		return abort(err)
	}
	return tx.Commit()
}

// OrderStatus reads a customer's latest order and its lines (read-only).
func (t *TPCC) OrderStatus(db DB, nd int, rng *rand.Rand) error {
	tx, err := db.Begin(nd)
	if err != nil {
		return err
	}
	abort := func(err error) error { tx.Rollback(); return err }
	w := t.homeWarehouse(rng, nd, db.NodeCount())
	d := rng.Intn(t.Districts)
	c := rng.Intn(t.Customers)
	if _, err := tx.Get(t.customer, u64key(uint64(w), uint64(d), uint64(c))); err != nil {
		return abort(err)
	}
	// Scan the district's recent orders for this customer.
	from := u64key(uint64(w), uint64(d))
	to := u64key(uint64(w), uint64(d)+1)
	if _, err := tx.Scan(t.orders, from, to, 20); err != nil {
		return abort(err)
	}
	return tx.Commit()
}

// Delivery consumes up to 10 queued new-orders for a warehouse.
func (t *TPCC) Delivery(db DB, nd int, rng *rand.Rand) error {
	tx, err := db.Begin(nd)
	if err != nil {
		return err
	}
	abort := func(err error) error { tx.Rollback(); return err }
	w := t.homeWarehouse(rng, nd, db.NodeCount())
	from := u64key(uint64(w))
	to := u64key(uint64(w) + 1)
	pending, err := tx.Scan(t.newOrder, from, to, 10)
	if err != nil {
		return abort(err)
	}
	for _, kv := range pending {
		if err := tx.Delete(t.newOrder, kv.Key); err != nil && !isNotFound(err) {
			return abort(err)
		}
	}
	return tx.Commit()
}

// StockLevel counts recently-sold items below a threshold (read-only scan).
func (t *TPCC) StockLevel(db DB, nd int, rng *rand.Rand) error {
	tx, err := db.Begin(nd)
	if err != nil {
		return err
	}
	abort := func(err error) error { tx.Rollback(); return err }
	w := t.homeWarehouse(rng, nd, db.NodeCount())
	from := u64key(uint64(w))
	to := u64key(uint64(w) + 1)
	rows, err := tx.Scan(t.stock, from, to, 50)
	if err != nil {
		return abort(err)
	}
	low := 0
	for _, kv := range rows {
		var st sRow
		if json.Unmarshal(kv.Value, &st) == nil && st.Quantity < 15 {
			low++
		}
	}
	return tx.Commit()
}
