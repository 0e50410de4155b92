package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"nearestpeer/internal/p2p"
	"nearestpeer/internal/stats"
)

// The live-udp workload: a Chord ring and its clients on one p2p.UDP
// transport over 127.0.0.1, driven by the same calls `npnode serve` and
// `npnode get|put|nearest` make, under a closed loop of clients. The
// deployment (ring IDs, transport) is fixed; --seed drives the clients'
// operation streams.
const (
	liveMembers       = 16
	liveClients       = 2
	liveKeysPerClient = 1024
	liveStabilize     = 200 * time.Millisecond
	liveRPCTimeout    = 2 * time.Second // npnode's default
	liveOpDeadline    = 5 * time.Second
	liveSetups        = 3
	liveBlock         = 1000 // operations per wall_s block
	liveRingSeed      = defaultSeed
	// liveProcs is the GOMAXPROCS the workload runs at. The live path is
	// one event loop; with two Ps on a 2-vCPU VM its goroutine hand-offs
	// cross CPUs, and the wake-up cost made p99 swing 2-5 ms between
	// identical runs.
	liveProcs = 1
	// liveMaxOpsPerSec sizes the per-client record buffers up front, so
	// peak memory does not follow throughput.
	liveMaxOpsPerSec = 20000
)

type liveSize struct {
	members, keys, setups, block int
}

type opKind int8

// liveEpoch is the origin of operation end times.
var liveEpoch = time.Now()

const (
	opGet opKind = iota
	opPut
	opNearest
)

var opNames = [...]string{"Chord.Get", "Chord.Put", "Node.SweepPing"}

// liveCluster is one brought-up ring with its clients.
type liveCluster struct {
	u       *p2p.UDP
	ch      *p2p.Chord
	members []p2p.NodeID
	clients []p2p.NodeID
	// lastPut[c][k] is the key name client c last wrote its key k under.
	// Chord.Put appends a value beside the ones already stored, so a Put
	// that reused the name would grow the key's value list, and every later
	// Get's reply, for the whole run. Each Put of k therefore writes a new
	// name k/p<phase>.g<version>, the value being the name itself, and Gets
	// of k read the name last written: every list holds one value.
	lastPut [][]string
}

func liveKey(client, k int) string { return fmt.Sprintf("c%d/k%d", client, k) }

func liveName(client, k int, phase uint64, version int) string {
	return fmt.Sprintf("%s/p%d.g%d", liveKey(client, k), phase, version)
}

// newLiveCluster binds every node, joins the members into a ring, waits
// until every member's successor is the one the ring IDs imply (the
// criterion `npnode serve` logs as "ring converged"), and preloads every
// client's keys.
func newLiveCluster(sz liveSize) (*liveCluster, error) {
	pop := sz.members + liveClients
	u := p2p.NewUDP(pop, p2p.Config{RPCTimeout: liveRPCTimeout}, liveRingSeed)
	c := &liveCluster{u: u}
	for id := 0; id < pop; id++ {
		if _, err := u.Listen(p2p.NodeID(id), "127.0.0.1:0"); err != nil {
			u.Close()
			return nil, err
		}
		if id < sz.members {
			c.members = append(c.members, p2p.NodeID(id))
		} else {
			c.clients = append(c.clients, p2p.NodeID(id))
		}
	}
	ccfg := p2p.DefaultChordConfig()
	ccfg.StabilizeEvery = liveStabilize
	ccfg.RPCTimeout = liveRPCTimeout
	c.ch = p2p.NewChord(u, ccfg, liveRingSeed)
	u.Do(func() {
		for _, id := range c.members {
			c.ch.Join(id)
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for converged := false; !converged; {
		if time.Now().After(deadline) {
			u.Close()
			return nil, fmt.Errorf("ring of %d did not converge within 60 s", sz.members)
		}
		time.Sleep(10 * time.Millisecond)
		u.Do(func() { converged = c.ringConverged() })
	}

	// Preload: every client writes generation 0 of each of its keys.
	c.lastPut = make([][]string, len(c.clients))
	errs := make(chan error, len(c.clients))
	for ci := range c.clients {
		c.lastPut[ci] = make([]string, sz.keys)
		go func() {
			deadline := time.NewTimer(liveOpDeadline)
			for k := range sz.keys {
				name := liveName(ci, k, 0, 0)
				r := c.issue(ci, opPut, name, deadline, nil, 0)
				if !r.ok {
					errs <- fmt.Errorf("preload put %s failed", name)
					return
				}
				c.lastPut[ci][k] = name
			}
			errs <- nil
		}()
	}
	var err error
	for range c.clients {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		u.Close()
		return nil, err
	}
	return c, nil
}

func (c *liveCluster) ringConverged() bool {
	for _, id := range c.members {
		succ, ok := c.ch.SuccessorOf(id)
		if !ok || succ != c.ringSuccessor(id) {
			return false
		}
	}
	return true
}

// ringSuccessor is the member at the smallest clockwise ring distance.
func (c *liveCluster) ringSuccessor(id p2p.NodeID) p2p.NodeID {
	self := c.ch.RingIDOf(id)
	best := p2p.NoNode
	var bestDist uint64
	for _, m := range c.members {
		if m == id {
			continue
		}
		if d := c.ch.RingIDOf(m) - self; best == p2p.NoNode || d < bestDist {
			best, bestDist = m, d
		}
	}
	return best
}

// opRecord is one finished client operation.
type opRecord struct {
	latency  time.Duration // from the UDP.Do call to the callback
	loopWait time.Duration // from the UDP.Do call to the closure running
	end      time.Duration // since liveEpoch; records hold no pointers
	hops     int32
	kind     opKind
	ok       bool
}

// opReply is what a callback hands back to its waiting client.
type opReply struct {
	ok    bool
	vals  [][]byte
	sweep p2p.PingSweep
	hops  int
	at    time.Time
}

// issue runs one operation from client ci and waits for its callback or
// the op deadline, timed by the client's own timer. A Put writes key as its
// own value; a Get of key must return it.
func (c *liveCluster) issue(ci int, kind opKind, key string, deadline *time.Timer, rec *recorder, parent int64) opRecord {
	client := c.clients[ci]
	reply := make(chan opReply, 1)
	send := func(r opReply) {
		r.at = time.Now()
		reply <- r
	}
	var ran time.Time
	doID, doStart := rec.begin()
	t0 := time.Now()
	c.u.Do(func() {
		ran = time.Now()
		switch kind {
		case opGet:
			c.ch.Get(client, key, func(res p2p.OpResult) {
				send(opReply{ok: res.OK, vals: res.Vals, hops: res.Hops})
			})
		case opPut:
			c.ch.Put(client, key, []byte(key), func(res p2p.OpResult) {
				send(opReply{ok: res.OK, hops: res.Hops})
			})
		case opNearest:
			c.u.Node(client).SweepPing(c.members, liveRPCTimeout, func(s p2p.PingSweep) {
				send(opReply{ok: s.Found, sweep: s})
			})
		}
	})
	rec.end(doID, parent, doStart, "UDP.Do", opNames[kind], nil)
	out := opRecord{kind: kind, loopWait: ran.Sub(t0)}
	deadline.Reset(liveOpDeadline)
	defer deadline.Stop()
	select {
	case r := <-reply:
		out.end = r.at.Sub(liveEpoch)
		out.latency = r.at.Sub(t0)
		out.hops = int32(r.hops)
		switch kind {
		case opGet:
			out.ok = r.ok && len(r.vals) == 1 && string(r.vals[0]) == key
		case opPut:
			out.ok = r.ok
		case opNearest:
			out.ok = r.ok && r.sweep.Probes == len(c.members)
		}
	case <-deadline.C:
		now := time.Now()
		out.end = now.Sub(liveEpoch)
		out.latency = now.Sub(t0)
	}
	return out
}

// runClients drives the closed loop for d: each client issues its next
// operation only when the previous one finished. Ops are 80% Get, 10% Put
// and 10% nearest, over the client's own keys, drawn from the seed.
func (c *liveCluster) runClients(d time.Duration, seed int64, phase uint64, rec *recorder) []opRecord {
	var wg sync.WaitGroup
	per := make([][]opRecord, len(c.clients))
	stop := time.Now().Add(d)
	for ci := range c.clients {
		per[ci] = make([]opRecord, 0, int(d.Seconds()*liveMaxOpsPerSec)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewPCG(uint64(seed), phase<<8|uint64(ci)))
			version := make([]int, len(c.lastPut[ci]))
			deadline := time.NewTimer(liveOpDeadline)
			for time.Now().Before(stop) {
				k := rnd.IntN(len(c.lastPut[ci]))
				kind, key := opGet, c.lastPut[ci][k]
				switch rnd.IntN(10) {
				case 0:
					kind = opPut
					version[k]++
					key = liveName(ci, k, phase, version[k])
				case 1:
					kind = opNearest
				}
				id, st := rec.begin()
				r := c.issue(ci, kind, key, deadline, rec, id)
				if rec != nil {
					rec.end(id, 0, st, opNames[kind], key, map[string]float64{"hops": float64(r.hops), "ok": b2f(r.ok)})
				}
				if kind == opPut && r.ok {
					c.lastPut[ci][k] = key
				}
				per[ci] = append(per[ci], r)
			}
		}()
	}
	wg.Wait()
	all := make([]opRecord, 0, len(per[0])*len(per))
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	return all
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// livePhase is the accounting of one closed-loop phase.
type livePhase struct {
	ops     []opRecord
	wall    time.Duration
	cpu     time.Duration
	from    runtimeCounters
	to      runtimeCounters
	metrics p2p.Metrics // transport counters accumulated over the phase
}

func (c *liveCluster) metrics() p2p.Metrics {
	var m p2p.Metrics
	c.u.Do(func() { m = *c.u.SerialMetrics() })
	return m
}

func (c *liveCluster) phase(d time.Duration, seed int64, n uint64, rec *recorder) livePhase {
	runtime.GC()
	m0 := c.metrics()
	p := livePhase{from: readCounters()}
	cpu0 := cpuTime()
	t0 := time.Now()
	p.ops = c.runClients(d, seed, n, rec)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.to = readCounters()
	m1 := c.metrics()
	p.metrics = p2p.Metrics{
		MsgsSent: m1.MsgsSent - m0.MsgsSent,
		Timeouts: m1.Timeouts - m0.Timeouts,
		Retries:  m1.Retries - m0.Retries,
	}
	return p
}

func runLive(cfg config) *outcome {
	o := &outcome{}
	sz := liveSize{members: liveMembers, keys: liveKeysPerClient, setups: liveSetups, block: liveBlock}
	if cfg.tiny {
		sz = liveSize{members: 4, keys: 16, setups: 1, block: 50}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(liveProcs))
	o.gomaxprocs = liveProcs
	var c *liveCluster
	var setupS []float64
	for i := 0; i < sz.setups; i++ {
		if c != nil {
			c.u.Close()
			c = nil
		}
		runtime.GC()
		id, st := cfg.rec.begin()
		t0 := time.Now()
		var err error
		c, err = newLiveCluster(sz)
		setupS = append(setupS, time.Since(t0).Seconds())
		cfg.rec.end(id, 0, st, "p2p.NewUDP+Chord.Join+preload", fmt.Sprintf("members=%d", sz.members), nil)
		if err != nil {
			o.problem("live-udp set-up: %v", err)
			o.attempted = 1
			o.failed = 1
			return o
		}
	}
	defer c.u.Close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	var phases []livePhase
	if cfg.rec == nil {
		phases = append(phases, c.phase(d, cfg.seed, 1, nil))
	} else {
		zeroLayers(o)
		untraced := c.phase(d/2, cfg.seed, 1, nil)
		traced := c.phase(d/2, cfg.seed, 2, cfg.rec)
		phases = append(phases, untraced, traced)
		o.set("trace.overhead_frac", opsPerSec(untraced)/opsPerSec(traced)-1)
		liveLayers(o, untraced)
	}

	for _, p := range phases {
		for _, r := range p.ops {
			o.attempted++
			if !r.ok {
				o.failed++
			}
		}
	}
	if o.failed > 0 {
		o.problem("live-udp: %d of %d operations failed", o.failed, o.attempted)
	}
	// The phase is cut into consecutive blocks of completed operations;
	// each metric is the median over blocks, so a stall that hits one block
	// moves none of them. A block of 1,000 has ten samples beyond its p99.
	var walls, p50s, p99s []float64
	ops := phases[0].ops
	for i := sz.block; i <= len(ops); i += sz.block {
		blk := ops[i-sz.block : i]
		lat := make([]float64, len(blk))
		for j, r := range blk {
			lat[j] = millis(r.latency)
		}
		walls = append(walls, (blk[len(blk)-1].end - ops[max(i-sz.block-1, 0)].end).Seconds())
		p50s = append(p50s, stats.Quantile(lat, 0.5))
		p99s = append(p99s, stats.Quantile(lat, 0.99))
	}
	if len(walls) == 0 {
		o.problem("live-udp: %d operations, fewer than one block of %d", len(ops), sz.block)
		return o
	}
	wall := stats.Median(walls)
	o.set("setup_s", stats.Median(setupS))
	o.set("wall_s", wall)
	o.set("ops_per_s", float64(sz.block)/wall)
	o.set("p50_ms", stats.Median(p50s))
	o.set("p99_ms", stats.Median(p99s))
	o.set("peak_rss_mb", peakRSSMB())
	return o
}

func opsPerSec(p livePhase) float64 { return float64(len(p.ops)) / p.wall.Seconds() }

// liveLayers fills the per-layer metrics from the traced run's untraced
// phase; the traced phase contributes only its spans and its overhead.
func liveLayers(o *outcome, p livePhase) {
	n := float64(len(p.ops))
	byKind := map[opKind][]float64{}
	var waits []float64
	var hops, chordOps float64
	for _, r := range p.ops {
		byKind[r.kind] = append(byKind[r.kind], millis(r.latency))
		waits = append(waits, float64(r.loopWait)/float64(time.Microsecond))
		if r.kind != opNearest {
			hops += float64(r.hops)
			chordOps++
		}
	}
	// A tiny run may finish without an operation of some kind; its
	// quantile stays 0 rather than NaN, which JSON cannot carry.
	for _, q := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"get.p50_ms", byKind[opGet], 0.5},
		{"get.p99_ms", byKind[opGet], 0.99},
		{"put.p99_ms", byKind[opPut], 0.99},
		{"nearest.p99_ms", byKind[opNearest], 0.99},
		{"udp.loop_wait_p99_us", waits, 0.99},
	} {
		v := 0.0
		if len(q.xs) > 0 {
			v = stats.Quantile(q.xs, q.q)
		}
		o.set(q.name, v)
	}
	o.set("udp.cpu_us_per_op", float64(p.cpu)/float64(time.Microsecond)/n)
	o.set("udp.allocs_per_op", float64(p.to.allocs-p.from.allocs)/n)
	o.set("go.gc_cpu_frac", gcCPUFrac(p.from, p.to))
	o.set("p2p.msgs_per_op", float64(p.metrics.MsgsSent)/n)
	o.set("p2p.timeouts", float64(p.metrics.Timeouts))
	o.set("p2p.retries", float64(p.metrics.Retries))
	if chordOps > 0 {
		o.set("chord.hops_per_op", hops/chordOps)
	}
}
