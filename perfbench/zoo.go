package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/experiments"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/stats"
)

// The zoo workload: every registry scheme under every wire condition, one
// experiments.RunWireMitigation cell each, fanned over engine.Map. The
// measurement topology is the quick environment of the default seed, a
// fixed dataset, so that every seed does a like amount of work; --seed
// drives each cell's run (query targets, probe noise, loss and churn).
const (
	zooPeers   = 200
	zooQueries = 40
	zooWorkers = 2
	zooSetups  = 3
	zooEnvSeed = defaultSeed
	// zooSeedCycle is how many cell seeds a timed run cycles its batches
	// through, in whole cycles. The slowest cell (ucl under 5% loss, which
	// sets p99_ms) takes 0.6-0.8 s depending on its loss draws, so a run on
	// one draw made p99_ms spread 13% over seeds, and one on four 10%.
	zooSeedCycle = 8
)

// zooSeed is the cell seed of batch slot k of a run; slot 0 is the run's
// own seed, whose rows are pinned.
func zooSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

type zooCond struct {
	name  string
	loss  float64
	churn bool
}

var zooConds = []zooCond{
	{name: "lossless"},
	{name: "loss5", loss: 0.05},
	{name: "churn", churn: true},
}

type zooCell struct {
	scheme string
	cond   zooCond
}

func (c zooCell) String() string { return c.scheme + " " + c.cond.name }

type zooCellRun struct {
	row    experiments.MitigationRow
	err    error
	dur    time.Duration
	allocs uint64
}

// zooBatch is one run of every cell.
type zooBatch struct {
	seed  int64
	cells []zooCellRun
	wall  time.Duration
}

// zooRowKey renders every deterministic field of a row exactly.
func zooRowKey(c zooCell, r zooCellRun) string {
	if r.err != nil {
		return c.String() + " error: " + r.err.Error()
	}
	row := r.row
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("%s found=%s p_near=%s near_denom=%d mean_found_ms=%s probes=%s dead_probes=%d lookups=%s hops=%s lookup_fails=%d pub_msgs=%s msgs=%s timeouts=%d leaves=%d joins=%d",
		c, g(row.Found), g(row.PNear), row.NearDenom, g(row.MeanFoundMs), g(row.MeanProbes), row.DeadProbes,
		g(row.MeanLookups), g(row.MeanHops), row.LookupFails, g(row.PubMsgsPerPeer), g(row.MeanMsgs),
		row.Timeouts, row.Leaves, row.Joins)
}

// runZooBatch runs every cell once. With countAllocs the cells must run one
// at a time (workers 1), so the runtime's allocation counter is theirs.
func runZooBatch(env *experiments.Env, peers []netmodel.HostID, cells []zooCell, queries, workers int, seed int64,
	rec *recorder, countAllocs bool) zooBatch {
	batchID, batchStart := rec.begin()
	t0 := time.Now()
	runs := engine.Map(engine.Config{Workers: workers, Seed: seed, Label: "perfbench-zoo"}, cells,
		func(_ *engine.Trial, c zooCell) (out zooCellRun) {
			// Every cell owns its measurement toolkit, as in the grand
			// table, so parallel cells never share a noise stream.
			tools := measure.NewTools(env.Top, measure.DefaultConfig(), seed+1)
			var before runtimeCounters
			if countAllocs {
				before = readCounters()
			}
			id, st := rec.begin()
			start := time.Now()
			defer func() {
				out.dur = time.Since(start)
				if p := recover(); p != nil {
					out.err = fmt.Errorf("panic: %v", p)
				}
				if countAllocs {
					out.allocs = readCounters().allocs - before.allocs
				}
				if rec != nil {
					rec.end(id, batchID, st, "experiments.RunWireMitigation", c.String(), map[string]float64{
						"found": out.row.Found, "msgs_per_query": out.row.MeanMsgs,
						"timeouts": float64(out.row.Timeouts), "allocs": float64(out.allocs),
					})
				}
			}()
			out.row, out.err = experiments.RunWireMitigation(env, peers, experiments.MitigationOpts{
				Scheme: c.scheme, Loss: c.cond.loss, Churn: c.cond.churn,
				Queries: queries, Seed: seed, Tools: tools,
			})
			return out
		})
	wall := time.Since(t0)
	rec.end(batchID, 0, batchStart, "zoo.batch", fmt.Sprintf("workers=%d", workers), nil)
	return zooBatch{seed: seed, cells: runs, wall: wall}
}

func runZoo(cfg config) *outcome {
	o := &outcome{}
	nPeers, queries, setups := zooPeers, zooQueries, zooSetups
	if cfg.tiny {
		nPeers, queries, setups = 40, 3, 1
	}
	var cells []zooCell
	for _, s := range zooSchemes {
		for _, c := range zooConds {
			cells = append(cells, zooCell{s, c})
		}
	}

	// Set-up: the measurement topology, its toolkit and vantages, and the
	// peer selection, built from scratch several times.
	var env *experiments.Env
	var peers []netmodel.HostID
	var setupS []float64
	for i := 0; i < setups; i++ {
		env, peers = nil, nil
		runtime.GC()
		id, st := cfg.rec.begin()
		t0 := time.Now()
		env = experiments.NewEnv(experiments.Quick, zooEnvSeed)
		peers = experiments.MitigationPeers(env, nPeers)
		setupS = append(setupS, time.Since(t0).Seconds())
		cfg.rec.end(id, 0, st, "experiments.NewEnv+MitigationPeers", "", map[string]float64{"peers": float64(len(peers))})
	}
	if len(peers) < nPeers {
		o.problem("zoo: only %d responsive peers, want %d", len(peers), nPeers)
	}

	var batches []zooBatch
	runBatch := func(seed int64, workers int, rec *recorder, countAllocs bool) zooBatch {
		runtime.GC()
		b := runZooBatch(env, peers, cells, queries, workers, seed, rec, countAllocs)
		batches = append(batches, b)
		return b
	}

	// A process's first batch runs measurably slower than later ones, so
	// one batch at the run's own seed warms up before anything is timed;
	// its rows are checked with the rest.
	runBatch(cfg.seed, zooWorkers, nil, false)
	timed := len(batches)
	if cfg.rec == nil {
		// Whole cycles through the cell seeds, at least one. Slot 0 is the
		// warm-up's seed, so its rows are checked to repeat in every run,
		// and every slot's are when the run has time for a second cycle.
		start := time.Now()
		var cycles []float64
		for len(cycles) < 1 || time.Since(start).Seconds()+stats.Median(cycles) <= cfg.seconds {
			t0 := time.Now()
			for k := range zooSeedCycle {
				runBatch(zooSeed(cfg.seed, k), zooWorkers, nil, false)
			}
			cycles = append(cycles, time.Since(t0).Seconds())
		}
	} else {
		zeroLayers(o)
		from := readCounters()
		untraced := runBatch(cfg.seed, zooWorkers, nil, false)
		o.set("go.gc_cpu_frac", gcCPUFrac(from, readCounters()))
		traced := runBatch(cfg.seed, zooWorkers, cfg.rec, false)
		serial := runBatch(cfg.seed, 1, cfg.rec, true)
		o.set("trace.overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1)
		zooLayers(o, cells, traced, serial, queries)
	}

	// Output checks: every batch repeats the first batch of its seed
	// exactly, and at the default seed that batch equals the pinned rows.
	first := map[int64][]string{}
	bad := make([]bool, len(cells))
	for bi, b := range batches {
		want, seen := first[b.seed]
		if !seen {
			for i, c := range cells {
				first[b.seed] = append(first[b.seed], zooRowKey(c, b.cells[i]))
			}
		}
		for i, c := range cells {
			if b.cells[i].err != nil {
				bad[i] = true
				o.problem("zoo batch %d: %s: %v", bi, c, b.cells[i].err)
			} else if key := zooRowKey(c, b.cells[i]); seen && key != want[i] {
				bad[i] = true
				o.problem("zoo batch %d differs from the first batch of seed %d:\n  %s\n  %s", bi, b.seed, key, want[i])
			}
		}
	}
	if cfg.seed == defaultSeed && !cfg.tiny {
		checkPinned(o, cfg.pin, "zoo", first[cfg.seed], bad)
	}
	for _, isBad := range bad {
		if isBad {
			o.failed += int64(queries * len(batches))
		}
	}
	o.attempted = int64(len(cells) * queries * len(batches))

	// The timed batches are those after the warm-up; in the traced run only
	// its untraced batch, since the later ones differ in width and tracing.
	// Each latency metric is the median over batches of the batch's
	// quantile of its cells' call times, so a stall that hits one batch
	// moves none of them.
	timedBatches := batches[timed:]
	if cfg.rec != nil {
		timedBatches = timedBatches[:1]
	}
	var walls, p50s, p99s []float64
	for _, b := range timedBatches {
		walls = append(walls, b.wall.Seconds())
		cellMs := make([]float64, len(b.cells))
		for i, r := range b.cells {
			cellMs[i] = millis(r.dur)
		}
		p50s = append(p50s, stats.Quantile(cellMs, 0.5))
		p99s = append(p99s, stats.Quantile(cellMs, 0.99))
	}
	wall := stats.Median(walls)
	o.set("setup_s", stats.Median(setupS))
	o.set("wall_s", wall)
	o.set("ops_per_s", float64(len(cells)*queries)/wall)
	o.set("p50_ms", stats.Median(p50s))
	o.set("p99_ms", stats.Median(p99s))
	o.set("peak_rss_mb", peakRSSMB())
	return o
}

// zooLayers fills the per-layer metrics from a traced parallel batch (engine
// packing) and a serial one (per-cell time and allocations).
func zooLayers(o *outcome, cells []zooCell, par, serial zooBatch, queries int) {
	var busy, longest time.Duration
	for _, r := range par.cells {
		busy += r.dur
		longest = max(longest, r.dur)
	}
	o.set("engine.busy_frac", busy.Seconds()/(float64(zooWorkers)*par.wall.Seconds()))
	o.set("engine.longest_cell_ms", millis(longest))

	type agg struct {
		ms      float64
		allocs  uint64
		msgs    float64
		hops    float64
		queries int
		cells   int
	}
	per := map[string]*agg{}
	var msgs, noPeer float64
	var timeouts int64
	dht := &agg{}
	for i, c := range cells {
		r := serial.cells[i]
		a := per[c.scheme]
		if a == nil {
			a = &agg{}
			per[c.scheme] = a
		}
		for _, x := range []*agg{a, dht} {
			if x == dht && c.scheme != "chord" && c.scheme != "ucl" && c.scheme != "ipprefix" {
				continue
			}
			x.ms += millis(r.dur)
			x.allocs += r.allocs
			x.msgs += r.row.MeanMsgs
			x.hops += r.row.MeanHops
			x.queries += queries
			x.cells++
		}
		msgs += r.row.MeanMsgs
		noPeer += 1 - r.row.Found
		timeouts += r.row.Timeouts
	}
	for s, a := range per {
		o.set(s+".cell_ms", a.ms/float64(a.cells))
		o.set(s+".allocs_per_query", float64(a.allocs)/float64(a.queries))
		o.set(s+".msgs_per_query", a.msgs/float64(a.cells))
	}
	o.set("chord.allocs_per_op", float64(dht.allocs)/float64(dht.queries))
	o.set("chord.hops_per_op", dht.hops/float64(dht.cells))
	o.set("p2p.msgs_per_op", msgs/float64(len(cells)))
	o.set("p2p.timeouts", float64(timeouts))
	o.set("query.no_peer_frac", noPeer/float64(len(cells)))
}
