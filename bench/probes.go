package main

// The probe pass: a tight timed loop over each layer's public API, built
// in-process from the constructors the package tests use. Each probe is the
// cost of one unit of the same layer's counter in layers.go, so counts x
// probes can be set against the measured transaction latency (recon.go).

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"time"

	"polardbmp"
	"polardbmp/internal/bufferfusion"
	"polardbmp/internal/common"
	"polardbmp/internal/lockfusion"
	"polardbmp/internal/netsrv"
	"polardbmp/internal/page"
	"polardbmp/internal/pmfsrep"
	"polardbmp/internal/rdma"
	"polardbmp/internal/storage"
	"polardbmp/internal/txfusion"
	"polardbmp/internal/wal"
	"polardbmp/internal/wire"
)

const (
	// A probe at scale 1 runs for probeTime or probeIters operations,
	// whichever comes first, in batches whose per-operation times are
	// reduced to a median.
	probeTime    = 2 * time.Second
	probeIters   = 20000
	probeBatches = 20
	probeRows    = 2000
)

// timeLoop returns the median per-operation time of op in nanoseconds.
func timeLoop(scale float64, op func() error) (float64, error) {
	if err := op(); err != nil { // warm caches and lazy set-up, untimed
		return 0, err
	}
	budget := time.Duration(float64(probeTime) * scale)
	iters := int(float64(probeIters) * scale)
	// Size a batch so one lasts about budget/probeBatches.
	t0 := time.Now()
	if err := op(); err != nil {
		return 0, err
	}
	one := time.Since(t0)
	batch := iters / probeBatches
	if one > 0 {
		if byTime := int(budget / probeBatches / one); byTime < batch {
			batch = byTime
		}
	}
	if batch < 1 {
		batch = 1
	}
	var perOp []float64
	start := time.Now()
	for done := 0; len(perOp) < 3 || (done < iters && time.Since(start) < budget); done += batch {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		perOp = append(perOp, float64(time.Since(b0))/float64(batch))
	}
	sort.Float64s(perOp)
	return perOp[len(perOp)/2], nil
}

// prober collects probe results; a failed probe is an error of the run.
type prober struct {
	scale float64
	vals  map[string]float64
	errs  []string
}

func (p *prober) fail(name string, err error) {
	p.errs = append(p.errs, fmt.Sprintf("probe %s: %v", name, err))
}

// ns and us time op and store the result under name in that unit.
func (p *prober) ns(name string, op func() error) { p.timed(name, 1, op) }
func (p *prober) us(name string, op func() error) { p.timed(name, 1e3, op) }

func (p *prober) timed(name string, div float64, op func() error) {
	v, err := timeLoop(p.scale, op)
	if err != nil {
		p.fail(name, err)
		return
	}
	p.vals[name] = v / div
}

// runProbes fills vals with every probe metric. binDir holds mpgateway for
// the gateway-hop probes.
func runProbes(vals map[string]float64, scale float64, binDir string) []string {
	p := &prober{scale: scale, vals: vals}
	for _, group := range []func() error{
		p.codec, func() error { return p.sessions(binDir) }, p.pages, p.fabric,
		p.pmfs, p.txfusion, p.plock, p.bufferPool, p.logs,
	} {
		if err := group(); err != nil {
			p.errs = append(p.errs, "probe set-up: "+err.Error())
		}
	}
	// A failed probe or group set-up leaves names unset; report zeros so the
	// metric list stays complete (the errors mark the run incorrect).
	for _, d := range probeDefs {
		if _, ok := vals[d.Name]; !ok {
			vals[d.Name] = 0
		}
	}
	return p.errs
}

func (p *prober) codec() error {
	f := wire.Frame{Kind: wire.KindRequest, Op: wire.OpGet, ID: 7, Payload: make([]byte, 128)}
	var buf []byte
	p.ns("wire.frame_codec_ns", func() error {
		buf = wire.AppendFrame(buf[:0], f)
		_, _, err := wire.DecodeFrame(buf)
		return err
	})
	return nil
}

// sessions probes the session protocol against a one-node engine served
// in-process, directly and through a spawned mpgateway, and the same engine
// through the library with no wire at all.
func (p *prober) sessions(binDir string) error {
	db, err := polardbmp.Open(polardbmp.Options{Nodes: 1})
	if err != nil {
		return err
	}
	defer db.Close()
	tab, err := db.CreateTable("probe")
	if err != nil {
		return err
	}
	lib := &libSession{node: db.Node(1), tables: []polardbmp.Table{tab}}
	if err := loadRange(lib, 0, 0, probeRows); err != nil {
		return err
	}
	key := rowKey(probeRows / 2)

	// Library, everything in the LBP.
	tx, err := lib.Begin(false)
	if err != nil {
		return err
	}
	p.us("core.get_warm_us", func() error {
		_, err := tx.Get(0, key)
		return err
	})
	if err := tx.Commit(); err != nil {
		return err
	}
	plan := txPlan{k1: 1, k2: probeRows - 1, delta: 1}
	p.us("core.rw_commit_warm_us", func() error {
		tx, err := lib.Begin(false)
		if err != nil {
			return err
		}
		return writeAndCommit(tx, &plan)
	})

	// Session server over loopback.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c := db.Internal()
	srv := wire.ServeSessions(lis, "probe", netsrv.New(c, c.Node(1)), &wire.NetCounters{})
	defer srv.Close()
	direct, err := dialWire(srv.Addr().String(), "probe-direct", []string{"probe"})
	if err != nil {
		return err
	}
	defer direct.Close()
	p.us("wire.ping_direct_us", direct.cl.Ping)
	getLoop := func(s *wireSession, name string) error {
		tx, err := s.Begin(false)
		if err != nil {
			return err
		}
		p.us(name, func() error {
			_, err := tx.Get(0, key)
			return err
		})
		return tx.Commit()
	}
	if err := getLoop(direct, "wire.get_direct_us"); err != nil {
		return err
	}

	// The same server behind a real mpgateway process.
	gw := newDeployment("")
	defer gw.stop()
	gwd, err := gw.spawn("gateway", filepath.Join(binDir, "mpgateway"),
		"-listen", "127.0.0.1:0", "-probe", "100ms", "-backends", srv.Addr().String())
	if err != nil {
		return err
	}
	if gwd.sess, err = gw.await(gwd, reSess); err != nil {
		return err
	}
	via, err := dialWire(gwd.sess, "probe-gateway", []string{"probe"})
	if err != nil {
		return err
	}
	defer via.Close()
	p.us("gateway.ping_hop_us", via.cl.Ping)
	p.vals["gateway.ping_hop_us"] -= p.vals["wire.ping_direct_us"]
	return getLoop(via, "wire.get_gateway_us")
}

func (p *prober) pages() error {
	pg := page.New(1, 1, page.TypeLeaf)
	val := rowValue(initialCount)
	for i := 0; pg.SizeEstimate() < page.SplitThreshold; i++ {
		pg.InsertVersion(rowKey(i), page.Version{Value: val})
	}
	img, err := pg.Marshal()
	if err != nil {
		return err
	}
	p.us("page.marshal_us", func() error {
		_, err := pg.Marshal()
		return err
	})
	p.us("page.unmarshal_us", func() error {
		_, err := page.Unmarshal(img)
		return err
	})
	return nil
}

// socketFabrics joins two fabrics over loopback TCP the way a satellite
// joins a seed: fa serves, fb dials and routes everything through the peer.
func socketFabrics() (fa, fb *rdma.Fabric, closeFn func(), err error) {
	fa, fb = rdma.NewFabric(rdma.Latency{}), rdma.NewFabric(rdma.Latency{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	srv := rdma.ServeFabric(fa, lis, "seed", &wire.NetCounters{})
	peer, err := rdma.DialPeer(fb, lis.Addr().String(), rdma.PeerConfig{Name: "sat", Counters: &wire.NetCounters{}})
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	fb.AttachDefault(peer)
	return fa, fb, func() { _ = peer.Close(); srv.Close() }, nil
}

func (p *prober) fabric() error {
	local := rdma.NewFabric(rdma.Latency{})
	local.Register(1).RegisterRegion("mem", 4096)
	buf := make([]byte, 64)
	p.ns("rdma.inproc_read64_ns", func() error { return local.From(2).Read(1, "mem", 0, buf) })

	fa, fb, closeFn, err := socketFabrics()
	if err != nil {
		return err
	}
	defer closeFn()
	ep := fa.Register(1)
	ep.RegisterRegion("mem", 4096)
	ep.Serve("echo", func(req []byte) ([]byte, error) { return req, nil })
	conn := fb.From(2)
	p.us("rdma.socket_read_us", func() error { return conn.Read(1, "mem", 0, buf) })
	segs := []rdma.Seg{{Off: 0, Buf: make([]byte, 64)}, {Off: 1024, Buf: make([]byte, 64)}}
	p.us("rdma.socket_writev_us", func() error { return conn.WriteV(1, "mem", segs) })
	p.us("rdma.socket_fetchadd_us", func() error {
		_, err := conn.FetchAdd64(1, "mem", 2048, 1)
		return err
	})
	p.us("rdma.socket_call_us", func() error {
		_, err := conn.Call(1, "echo", buf)
		return err
	})
	return nil
}

func (p *prober) pmfs() error {
	const reg = "pmfs.tso"
	for _, k := range []int{1, 3} {
		f := rdma.NewFabric(rdma.Latency{})
		f.Register(common.PMFSNode).RegisterRegion(reg, 8)
		if k > 1 { // below 2 the tier is not replicated at all
			r := pmfsrep.New(f, common.PMFSNode, k)
			r.AddRegion(reg, 8, false)
			r.Attach(f)
		}
		p.us(fmt.Sprintf("pmfsrep.fetchadd_k%d_us", k), func() error {
			_, err := f.FetchAdd64(common.PMFSNode, reg, 0, 1)
			return err
		})
	}
	return nil
}

func (p *prober) txfusion() error {
	f := rdma.NewFabric(rdma.Latency{})
	txfusion.NewServer(f.Register(common.PMFSNode), f)
	// No CTS cache: every lookup of node 1's transaction from node 2 is the
	// one-sided remote read.
	cfg := txfusion.Config{CTSCacheSize: -1}
	c1 := txfusion.NewClient(f.Register(1), f, cfg)
	c2 := txfusion.NewClient(f.Register(2), f, cfg)
	p.us("txfusion.next_csn_us", func() error {
		_, err := c1.NextCommitCSN()
		return err
	})
	g, err := c1.Begin(1)
	if err != nil {
		return err
	}
	if _, err := c1.Commit(g, 42); err != nil {
		return err
	}
	p.us("txfusion.get_trx_cts_remote_us", func() error {
		_, err := c2.GetTrxCTS(g)
		return err
	})
	return nil
}

func (p *prober) plock() error {
	f := rdma.NewFabric(rdma.Latency{})
	pm := f.Register(common.PMFSNode)
	txfusion.NewServer(pm, f)
	lockfusion.NewServer(pm, f)
	var cl [2]*lockfusion.PLockClient
	for i := range cl {
		cl[i] = lockfusion.NewPLockClient(f.Register(common.NodeID(i+1)), f, lockfusion.Config{})
		cl[i].SetRevokeHandler(func(common.PageID, lockfusion.Mode) error { return nil })
	}
	const pg = 9
	p.ns("lockfusion.plock_retained_ns", func() error {
		if err := cl[0].Acquire(pg, lockfusion.ModeX); err != nil {
			return err
		}
		cl[0].Release(pg)
		return nil
	})
	// Two clients ping-ponging X on one page: every acquire negotiates the
	// other side's lazily retained lock away.
	turn := 0
	p.us("lockfusion.plock_negotiated_us", func() error {
		turn ^= 1
		if err := cl[turn].Acquire(pg, lockfusion.ModeX); err != nil {
			return err
		}
		cl[turn].Release(pg)
		return nil
	})
	return nil
}

// bufferPool probes the three places a page can come from. The LBP holds 2
// frames, so cycling over more pages misses it every time; the DBP either
// holds the whole cycle (DBP fetch) or far less than it (storage read).
func (p *prober) bufferPool() error {
	const cycle = 256
	build := func(dbpFrames int) (*bufferfusion.Client, error) {
		f := rdma.NewFabric(rdma.Latency{})
		store := storage.New(storage.Latency{})
		bufferfusion.NewServer(f.Register(common.PMFSNode), f, store, dbpFrames)
		val := rowValue(initialCount)
		for id := common.PageID(1); id <= cycle; id++ {
			pg := page.New(id, 1, page.TypeLeaf)
			for i := 0; pg.SizeEstimate() < page.SplitThreshold; i++ {
				pg.InsertVersion(rowKey(i), page.Version{Value: val})
			}
			img, err := pg.Marshal()
			if err != nil {
				return nil, err
			}
			if err := store.WritePage(id, img); err != nil {
				return nil, err
			}
		}
		return bufferfusion.NewClient(f.Register(1), f, store, 2), nil
	}
	get := func(c *bufferfusion.Client, id common.PageID) error {
		fr, err := c.Get(id)
		if err != nil {
			return err
		}
		c.Unpin(fr)
		return nil
	}
	big, err := build(4 * cycle)
	if err != nil {
		return err
	}
	p.ns("bufferfusion.get_lbp_hit_ns", func() error { return get(big, 1) })
	for id := common.PageID(1); id <= cycle; id++ { // pull the cycle into the DBP
		if err := get(big, id); err != nil {
			return err
		}
	}
	next := common.PageID(0)
	p.us("bufferfusion.get_dbp_us", func() error {
		next = next%cycle + 1
		return get(big, next)
	})
	small, err := build(16)
	if err != nil {
		return err
	}
	p.us("bufferfusion.get_storage_us", func() error {
		next = next%cycle + 1
		return get(small, next)
	})
	return nil
}

// logs probes the redo path: the writer over an in-memory store, the
// directory-backed store's sync, and the satellite's append uplink.
func (p *prober) logs() error {
	rec := &wal.Record{Type: wal.RecInsert, Node: 1, Page: 7, Space: 1, Key: rowKey(1), Value: rowValue(1)}
	w := wal.NewWriter(storage.New(storage.Latency{}), 1)
	var llsn uint64
	p.ns("wal.append_ns", func() error {
		llsn++
		rec.LLSN = common.LLSN(llsn)
		w.Append(rec)
		return nil
	})
	p.us("wal.sync_us", func() error {
		llsn++
		rec.LLSN = common.LLSN(llsn)
		w.Sync(w.Append(rec))
		return nil
	})

	dir, err := newRunDir()
	if err != nil {
		return err
	}
	defer removeRunDir(dir)
	disk, err := storage.OpenDir(dir, storage.Latency{})
	if err != nil {
		return err
	}
	data := rec.Marshal(nil)
	p.us("storage.dir_log_sync_us", func() error {
		disk.LogAppend(1, data)
		disk.LogSync(1)
		return nil
	})

	fa, fb, closeFn, err := socketFabrics()
	if err != nil {
		return err
	}
	defer closeFn()
	storage.Serve(fa.Register(common.PMFSNode), storage.New(storage.Latency{}))
	rem := storage.NewRemote(fb.From(2))
	p.us("storage.remote_log_append_us", func() error {
		rem.LogAppend(2, data)
		if rem.LogFenced(2) {
			return fmt.Errorf("uplink reported the stream fenced")
		}
		return nil
	})
	return nil
}
