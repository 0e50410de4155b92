package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"nearestpeer/internal/experiments"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/stats"
)

// The chord-scale-sh2 workload: the Chord cell of the s1 quick 2,500-host
// row, which is ~95% of that row's time. Each run calls
// experiments.RunWireChord on the sharded kernel at two shards over the
// row's topology, the way the s1 study's chord cell does. The topology is
// the row's own at the default seed: a fixed dataset, so that every seed
// does the same amount of work; --seed drives the ring IDs, the operation
// issuers and the keys. The traced run adds the same call at one shard, so
// the sharding gain is still measured.
const (
	scaleHosts   = 2500
	scaleQueries = 60
	scaleSetups  = 9
	scaleShards  = 2
	// scaleTopoSeed is the default seed's s1 topology seed (seed+target).
	scaleTopoSeed = defaultSeed + scaleHosts
)

// scaleRep is one RunWireChord call.
type scaleRep struct {
	row    experiments.WireChordRow
	wall   time.Duration
	allocs uint64
}

func scaleRowKey(r experiments.WireChordRow) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("chord nodes=%d ops=%d put_ok=%s get_ok=%s hops=%s retries=%s msgs=%s timeouts=%d lookup_fails=%d events=%d",
		r.Nodes, r.Ops, g(r.PutOK), g(r.GetOK), g(r.MeanHops), g(r.MeanRetries), g(r.MeanMsgs), r.Timeouts, r.LookupFails, r.Events)
}

// scaleOpts is the s1 chord cell's configuration for a topology.
func scaleOpts(top *netmodel.Topology, queries, shards int, seed int64) experiments.WireChordOpts {
	ccfg, spacing, settle := scaleChordConfig(top.NumHosts())
	return experiments.WireChordOpts{
		Ops: queries, Seed: seed,
		Chord: ccfg, JoinSpacing: spacing, Settle: settle,
		Horizon: 4 * time.Hour,
		Shards:  shards, Top: top,
	}
}

func runScaleRep(top *netmodel.Topology, queries, shards int, seed int64, rec *recorder) scaleRep {
	runtime.GC()
	before := readCounters()
	id, st := rec.begin()
	t0 := time.Now()
	row := experiments.RunWireChord(nil, scaleOpts(top, queries, shards, seed))
	r := scaleRep{row: row, wall: time.Since(t0), allocs: readCounters().allocs - before.allocs}
	if rec != nil {
		rec.end(id, 0, st, "experiments.RunWireChord", fmt.Sprintf("hosts=%d shards=%d", top.NumHosts(), shards), map[string]float64{
			"events": float64(row.Events), "msgs_per_op": row.MeanMsgs, "hops_per_op": row.MeanHops,
			"get_ok": row.GetOK, "allocs": float64(r.allocs),
		})
	}
	return r
}

func runScale(cfg config) *outcome {
	o := &outcome{}
	hosts, queries, setups := scaleHosts, scaleQueries, scaleSetups
	topoSeed := int64(scaleTopoSeed)
	if cfg.tiny {
		hosts, queries, setups = 300, 5, 1
		topoSeed = defaultSeed + 300
	}

	// Set-up: the row's topology, generated from scratch several times.
	var top *netmodel.Topology
	var setupS []float64
	for i := 0; i < setups; i++ {
		top = nil
		runtime.GC()
		id, st := cfg.rec.begin()
		t0 := time.Now()
		top = netmodel.Generate(scaleTopoConfig(hosts), topoSeed)
		setupS = append(setupS, time.Since(t0).Seconds())
		cfg.rec.end(id, 0, st, "netmodel.Generate", fmt.Sprintf("hosts=%d", top.NumHosts()), nil)
	}

	var reps []scaleRep
	if cfg.rec == nil {
		start := time.Now()
		var walls []float64
		for len(reps) < 2 || time.Since(start).Seconds()+stats.Median(walls) <= cfg.seconds {
			r := runScaleRep(top, queries, scaleShards, cfg.seed, nil)
			reps = append(reps, r)
			walls = append(walls, r.wall.Seconds())
		}
	} else {
		zeroLayers(o)
		from := readCounters()
		untraced := runScaleRep(top, queries, scaleShards, cfg.seed, nil)
		o.set("go.gc_cpu_frac", gcCPUFrac(from, readCounters()))
		traced := runScaleRep(top, queries, scaleShards, cfg.seed, cfg.rec)
		oneShard := runScaleRep(top, queries, 1, cfg.seed, cfg.rec)
		reps = append(reps, untraced, traced, oneShard)
		o.set("trace.overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1)
		o.set("sim.shard2_speedup", oneShard.wall.Seconds()/untraced.wall.Seconds())
		scaleLayers(o, cfg, top, queries, traced)
	}

	// Output checks: every call repeats the first exactly (the traced
	// run's one-shard call too), and at the default seed the first equals
	// the pinned row, which is the s1 figure's chord row and the same at
	// every shard count.
	first := []string{scaleRowKey(reps[0].row)}
	fmt.Printf("row %s\n", first[0])
	bad := []bool{false}
	for ri, r := range reps {
		if key := scaleRowKey(r.row); key != first[0] {
			bad[0] = true
			o.problem("chord-scale-sh2 call %d differs from call 0:\n  %s\n  %s", ri, key, first[0])
		}
	}
	if cfg.seed == defaultSeed && !cfg.tiny {
		checkPinned(o, cfg.pin, "chord-scale", first, bad)
	}
	var walls []float64
	for _, r := range reps {
		// Every simulated Put and Get is an operation. Whether a Get finds
		// its value is the simulation's outcome (the s1 figure's success
		// column), pinned and checked with the rest of the row and
		// reported as query.no_peer_frac; an operation fails when its call
		// gives a row that does not repeat.
		o.attempted += 2 * int64(r.row.Ops)
		if bad[0] {
			o.failed += 2 * int64(r.row.Ops)
		}
		walls = append(walls, r.wall.Seconds())
	}
	if cfg.rec != nil {
		walls = walls[:1]
	}
	fmt.Printf("call seconds %.3f\n", walls)
	wall := stats.Median(walls)
	o.set("setup_s", stats.Median(setupS))
	o.set("wall_s", wall)
	o.set("ops_per_s", float64(2*reps[0].row.Ops)/wall)
	o.set("p50_ms", 1000*stats.Quantile(walls, 0.5))
	o.set("p99_ms", 1000*stats.Quantile(walls, 0.99))
	o.set("peak_rss_mb", peakRSSMB())
	return o
}

// scaleLayers fills the per-layer metrics from the traced call and from a
// pricing pass: the serial variant of the cell, RunWireChord over a
// latency.Matrix the benchmark wraps, since the sharded path builds its
// matrices internally. The serial kernel orders events differently, so the
// pass is its own simulation of the same inputs with its own row (printed);
// its event count is reported beside the pricing counts it yields.
func scaleLayers(o *outcome, cfg config, top *netmodel.Topology, queries int, traced scaleRep) {
	row := traced.row
	ops := float64(max(row.Ops, 1))
	o.set("sim.events", float64(row.Events))
	o.set("sim.events_per_s", float64(row.Events)/traced.wall.Seconds())
	o.set("chord.cell_ms", millis(traced.wall))
	o.set("chord.msgs_per_query", row.MeanMsgs)
	o.set("chord.allocs_per_query", float64(traced.allocs)/ops)
	o.set("chord.allocs_per_op", float64(traced.allocs)/ops)
	o.set("chord.hops_per_op", row.MeanHops)
	o.set("p2p.msgs_per_op", row.MeanMsgs)
	o.set("p2p.timeouts", float64(row.Timeouts))
	o.set("p2p.retries", row.MeanRetries*ops)
	o.set("query.no_peer_frac", 1-row.GetOK)

	runtime.GC()
	m := &countingMatrix{inner: (&latency.FullTopologyMatrix{Top: top}).EnableRTTCache(0)}
	opts := scaleOpts(top, queries, 0, cfg.seed)
	opts.Shards, opts.Top = 0, nil
	id, st := cfg.rec.begin()
	pass := experiments.RunWireChord(m, opts)
	cfg.rec.end(id, 0, st, "experiments.RunWireChord", "pricing pass, serial path", map[string]float64{
		"rtt_calls": float64(m.calls), "events": float64(pass.Events), "get_ok": pass.GetOK,
	})
	fmt.Printf("pricing replay %s\n", scaleRowKey(pass))
	o.set("netmodel.rtt_calls", float64(m.calls))
	o.set("netmodel.rtt_ns", m.busyNs())
	o.set("netmodel.replay_events", float64(pass.Events))
}

// countingMatrix wraps the matrix handed to a public entry point, counting
// every RTT lookup and timing one in eight of them. It is confined to one
// goroutine, as the serial kernel is.
type countingMatrix struct {
	inner     latency.Matrix
	calls     int64
	sampled   int64
	sampledNs int64
}

const rttSampleEvery = 8

func (m *countingMatrix) N() int { return m.inner.N() }

func (m *countingMatrix) LatencyMs(i, j int) float64 {
	m.calls++
	if m.calls%rttSampleEvery != 0 {
		return m.inner.LatencyMs(i, j)
	}
	t := time.Now()
	v := m.inner.LatencyMs(i, j)
	m.sampledNs += int64(time.Since(t))
	m.sampled++
	return v
}

// busyNs estimates the total time spent pricing: the sampled calls' time,
// less the clock's own cost, scaled to every call.
func (m *countingMatrix) busyNs() float64 {
	if m.sampled == 0 {
		return 0
	}
	perCall := float64(m.sampledNs)/float64(m.sampled) - clockCostNs()
	return max(perCall, 0) * float64(m.calls)
}

// clockCostNs is the cost of one back-to-back time.Now/time.Since pair.
func clockCostNs() float64 {
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return float64(sum) / n
}

// scaleTopoConfig and scaleChordConfig mirror the s1 study's sizing of a
// population (experiments keeps them unexported); the pinned row at the
// default seed, the s1 figure's chord row, shows whether they still match.
func scaleTopoConfig(target int) netmodel.Config {
	target = max(target, 64)
	c := netmodel.DefaultConfig()
	cities := int(math.Round(6 * math.Cbrt(float64(target)/1000)))
	c.NCities = min(max(cities, 8), 48)
	c.NASes = min(max(c.NCities/3, 4), 14)
	c.ASCityCoverage = 0.5
	pops := float64(c.NCities) * float64(c.NASes) * c.ASCityCoverage
	perPoP := 1.1 * float64(target) / pops
	c.HomesCapMult = 5
	c.MeanHomesPerPoP = 0.6 * perPoP / 1.25
	meanENs := 0.4 * perPoP / 7
	c.MinENsPerPoP = min(max(int(0.6*meanENs), 1), 1<<20)
	c.MaxENsPerPoP = min(max(int(1.4*meanENs)+1, c.MinENsPerPoP+1), 1<<20)
	if c.BRASCapacity < int(c.MeanHomesPerPoP) {
		c.BRASCapacity = int(c.MeanHomesPerPoP)
	}
	return c
}

func scaleChordConfig(n int) (cfg p2p.ChordConfig, joinSpacing, settle time.Duration) {
	cfg = p2p.DefaultChordConfig()
	cfg.StabilizeEvery = time.Duration(min(max(n/2000, 1), 30)) * time.Second
	joinSpacing = time.Duration(min(max(int(120*time.Second)/n, int(200*time.Microsecond)), int(10*time.Millisecond)))
	settle = max(24*cfg.StabilizeEvery, 20*time.Second)
	return cfg, joinSpacing, settle
}
