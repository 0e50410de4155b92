// Shared machinery of the live transports (Loopback, UDP): a single
// serializing event loop standing in for the simulation kernel's
// single-threaded event dispatch, one deadline heap of wall-clock timers
// drained by that loop, and the Transport bookkeeping (nodes, groups,
// metrics, typed handlers) that does not depend on how envelopes travel.
//
// The contract the loop preserves is the one every protocol in this
// package was written against: all protocol callbacks — handlers, reply
// and timeout closures, timers — run one at a time, in one goroutine, so
// protocol state needs no locks. Sockets run on their own goroutines but
// only ever post closures into the loop, and timers fire from the loop's
// own heap; the loop is the only place Node maps and Metrics are touched
// once traffic flows.

package p2p

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/sim"
)

// liveLoop is the serializing event loop: an unbounded FIFO of closures
// and a deadline heap of timers, both drained by one goroutine. Posting
// and scheduling never block (the queue and heap grow), so callbacks
// running on the loop can post freely without deadlock.
//
// The heap holds every wall-clock timer of the transport: After,
// AfterHandler, request expiries and loopback deliveries. It is ordered
// by (deadline, sequence number), so timers due together fire in the
// order they were scheduled, and one time.Timer wakes the loop for the
// earliest deadline, re-armed only when that deadline changes. A request
// answered before its deadline leaves its entry parked; the entry pops
// into Node.expire, which ignores IDs no longer in flight. The heap is
// guarded by mu like the queue, so setup code may schedule from off the
// loop (the fault plan's crash timers do), but only the loop goroutine
// fires its entries.
type liveLoop struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	head   int // queue[head:] is pending; the array is reused, not regrown
	closed bool
	done   chan struct{}

	start  time.Time
	timers []liveTimer
	seq    uint64
	timer  *time.Timer
	armed  time.Duration // deadline the timer is set for; -1 when idle
	due    bool          // the timer fired since the loop last drained
	// expire fires a request expiry entry (see liveBase.timeoutAt).
	expire func(node NodeID, msgID uint64)
}

// liveTimer is one parked deadline. It runs fn if set, else h(arg) if h
// is set, else it is the expiry of request arg at node.
type liveTimer struct {
	at   time.Duration // since liveLoop.start
	seq  uint64
	fn   func()
	h    func(arg uint64)
	arg  uint64
	node NodeID
}

func newLiveLoop(expire func(NodeID, uint64)) *liveLoop {
	l := &liveLoop{done: make(chan struct{}), start: time.Now(), armed: -1, expire: expire}
	l.cond = sync.NewCond(&l.mu)
	l.timer = time.AfterFunc(time.Hour, l.wake)
	l.timer.Stop()
	go l.run()
	return l
}

// post enqueues fn for the loop goroutine. It reports false (dropping fn)
// after close — a timer or socket read landing during shutdown is simply
// discarded, as a datagram to a dead process would be.
func (l *liveLoop) post(fn func()) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	if l.head > 0 && len(l.queue) == cap(l.queue) { // reclaim the run prefix before growing
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, fn)
	l.mu.Unlock()
	l.cond.Signal()
	return true
}

// schedule parks t to fire on the loop after d. Dropped after close.
func (l *liveLoop) schedule(d time.Duration, t liveTimer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	now := time.Since(l.start)
	t.at, t.seq = now+d, l.seq
	l.seq++
	l.push(t)
	if l.armed < 0 || t.at < l.armed {
		l.armed = t.at
		l.timer.Reset(d)
	}
}

// wake is the timer's callback: it flags the heap for a drain.
func (l *liveLoop) wake() {
	l.mu.Lock()
	l.due, l.armed = true, -1
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *liveLoop) run() {
	l.mu.Lock()
	for {
		for l.head == len(l.queue) && !l.due && !l.closed {
			l.cond.Wait()
		}
		if l.due && !l.closed {
			l.due = false
			l.drain()
			continue
		}
		if l.head == len(l.queue) { // closed and drained
			l.mu.Unlock()
			close(l.done)
			return
		}
		fn := l.queue[l.head]
		l.queue[l.head] = nil
		if l.head++; l.head == len(l.queue) {
			l.queue, l.head = l.queue[:0], 0
		}
		l.mu.Unlock()
		fn()
		l.mu.Lock()
	}
}

// drain fires every timer already due when it starts, then re-arms the
// timer for the earliest deadline left. Timers the fired callbacks
// schedule wait for the next wake, so a self-rescheduling zero-delay timer
// cannot starve the queue. Called with mu held; released around each
// callback.
func (l *liveLoop) drain() {
	now, limit := time.Since(l.start), l.seq
	for !l.closed && len(l.timers) > 0 && l.timers[0].at <= now && l.timers[0].seq < limit {
		t := l.pop()
		l.mu.Unlock()
		switch {
		case t.fn != nil:
			t.fn()
		case t.h != nil:
			t.h(t.arg)
		default:
			l.expire(t.node, t.arg)
		}
		l.mu.Lock()
	}
	if !l.closed && len(l.timers) > 0 && (l.armed < 0 || l.timers[0].at < l.armed) {
		l.armed = l.timers[0].at
		l.timer.Reset(l.armed - time.Since(l.start))
	}
}

// before orders the heap by deadline, then by scheduling order.
func (l *liveLoop) before(i, j int) bool {
	a, b := &l.timers[i], &l.timers[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (l *liveLoop) push(t liveTimer) {
	l.timers = append(l.timers, t)
	for i := len(l.timers) - 1; i > 0; {
		p := (i - 1) / 2
		if !l.before(i, p) {
			break
		}
		l.timers[i], l.timers[p] = l.timers[p], l.timers[i]
		i = p
	}
}

func (l *liveLoop) pop() liveTimer {
	h := l.timers
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = liveTimer{} // drop the closure references
	l.timers = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && l.before(c+1, c) {
			c++
		}
		if !l.before(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// close discards the parked timers, drains the already-queued closures,
// then stops the goroutine.
func (l *liveLoop) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.timer.Stop()
	l.timers = nil
	l.mu.Unlock()
	l.cond.Signal()
	<-l.done
}

// liveBase is the transport state shared by Loopback and UDP. It
// implements every Transport method except send and Multicast, which
// depend on the medium; the embedding type supplies those. self points
// back at the embedding transport so nodes created here dispatch sends to
// the right medium.
type liveBase struct {
	self  Transport
	loop  *liveLoop
	start time.Time
	cfg   Config
	pop   int

	// mu guards the registries (nodes, groups, typed handlers) so setup
	// calls may run off-loop; once traffic flows, node internals are
	// loop-confined.
	mu       sync.RWMutex
	nodes    []*Node
	groups   map[string]map[NodeID]struct{}
	handlers []func(arg uint64)

	msgID atomic.Uint64
	live  atomic.Int64

	// metrics is loop-confined: every increment happens on the loop, and
	// readers use Do (or read after Close) to avoid racing it.
	metrics Metrics

	obsRec *obs.Recorder

	// flt is the optional fault plan (NewFaultTransport), nil by default.
	// Decisions are priced against wall-clock time since the transport
	// started — the live zero matching the simulator's virtual zero — so
	// the same plan seed produces the same per-window fault sequence on
	// both. Loop-confined once traffic flows (send runs on the loop).
	flt *faults.Plan
}

func (b *liveBase) init(self Transport, pop int, cfg Config) {
	if pop <= 0 {
		panic(fmt.Sprintf("p2p: live transport population %d", pop))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = DefaultConfig().RPCTimeout
	}
	b.self = self
	b.loop = newLiveLoop(b.fireExpiry)
	b.start = b.loop.start
	b.cfg = cfg
	b.pop = pop
	b.nodes = make([]*Node, pop)
	b.groups = make(map[string]map[NodeID]struct{})
}

// Do runs fn on the event loop and waits for it to finish: the way client
// code (tests, the npnode daemon) invokes protocol entry points, which
// must run serialized with handler callbacks. It must not be called from
// code already running on the loop — post there instead (callbacks never
// need Do: they are already serialized).
func (b *liveBase) Do(fn func()) {
	done := make(chan struct{})
	if !b.loop.post(func() { fn(); close(done) }) {
		return // transport closed; nothing to run against
	}
	<-done
}

// AddNode registers (or returns) the node for an ID, bringing it up
// alive, exactly as Runtime.AddNode does on the simulator.
func (b *liveBase) AddNode(id NodeID) *Node {
	if int(id) < 0 || int(id) >= b.pop {
		panic(fmt.Sprintf("p2p: node %d outside live population %d", id, b.pop))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := b.nodes[id]; n != nil {
		return n
	}
	n := &Node{
		ID:       id,
		rt:       b.self,
		alive:    true,
		handlers: make(map[string]Handler),
		inflight: make(map[uint64]call),
	}
	n.Handle(MsgPing, func(n *Node, env Envelope) {
		n.Reply(env, MsgPong, nil)
	})
	b.nodes[id] = n
	b.live.Add(1)
	return n
}

// Node returns the registered node for id, or nil.
func (b *liveBase) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= b.pop {
		return nil
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.nodes[id]
}

// Alive reports whether id is registered and up.
func (b *liveBase) Alive(id NodeID) bool {
	n := b.Node(id)
	return n != nil && n.alive
}

// Population returns the ID-space bound the transport was created with.
func (b *liveBase) Population() int { return b.pop }

// LiveNodes returns the number of registered nodes currently up.
func (b *liveBase) LiveNodes() int { return int(b.live.Load()) }

// Now returns wall-clock time since the transport started. All nodes of a
// live transport share one clock; the id parameter exists for the sim's
// per-shard clocks.
func (b *liveBase) Now(NodeID) time.Duration { return time.Since(b.start) }

// After schedules fn on the event loop after d of wall-clock time.
func (b *liveBase) After(_ NodeID, d time.Duration, fn func()) {
	b.loop.schedule(d, liveTimer{fn: fn})
}

// RegisterHandler registers a typed-event handler, the live counterpart of
// sim.Sim.RegisterHandler. Handlers run on the event loop.
func (b *liveBase) RegisterHandler(fn func(arg uint64)) sim.HandlerID {
	if fn == nil {
		panic("p2p: RegisterHandler(nil)")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers = append(b.handlers, fn)
	return sim.HandlerID(len(b.handlers) - 1)
}

// AfterHandler schedules a registered typed handler after d of wall-clock
// time, on the event loop.
func (b *liveBase) AfterHandler(d time.Duration, h sim.HandlerID, arg uint64) {
	b.mu.RLock()
	fn := b.handlers[h]
	b.mu.RUnlock()
	b.loop.schedule(d, liveTimer{h: fn, arg: arg})
}

// Sharded reports false: live transports run one event loop.
func (b *liveBase) Sharded() bool { return false }

// Shards returns 1 on a live transport.
func (b *liveBase) Shards() int { return 1 }

// ShardOf returns 0 on a live transport.
func (b *liveBase) ShardOf(NodeID) int { return 0 }

// Handoff on a live transport is After: there is no cross-shard fence to
// respect.
func (b *liveBase) Handoff(_ int, to NodeID, d time.Duration, fn func()) {
	b.After(to, d, fn)
}

// HandoffDelay is 0 on a live transport (no lookahead window).
func (b *liveBase) HandoffDelay() time.Duration { return 0 }

// SerialMetrics returns the transport-wide metrics. Loop-confined: read
// it via Do, or after Close.
func (b *liveBase) SerialMetrics() *Metrics { return &b.metrics }

// ShardMetrics returns the transport-wide metrics (one shard's worth: the
// whole transport).
func (b *liveBase) ShardMetrics(int) *Metrics { return &b.metrics }

// AttachRecorder attaches a lookup flight recorder, as Runtime.
// AttachRecorder does on the simulator. Attach before traffic flows.
func (b *liveBase) AttachRecorder(rec *obs.Recorder) { b.obsRec = rec }

// FlightRecorder returns the attached flight recorder, or nil.
func (b *liveBase) FlightRecorder() *obs.Recorder { return b.obsRec }

// JoinGroup subscribes a node to a named multicast group.
func (b *liveBase) JoinGroup(gname string, id NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.groups[gname]
	if g == nil {
		g = make(map[NodeID]struct{})
		b.groups[gname] = g
	}
	g[id] = struct{}{}
}

// LeaveGroup removes a node from a multicast group.
func (b *liveBase) LeaveGroup(gname string, id NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.groups[gname], id)
}

// groupMembers snapshots a group's membership, sorted for determinism.
func (b *liveBase) groupMembers(gname string) []NodeID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	g := b.groups[gname]
	out := make([]NodeID, 0, len(g))
	for id := range g {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// allocMsgIDFor hands out transport-unique correlation IDs.
func (b *liveBase) allocMsgIDFor(NodeID) uint64 { return b.msgID.Add(1) }

// timeoutAt schedules a request expiry for (node, msgID) after d: a
// closure-free heap entry, fired by fireExpiry.
func (b *liveBase) timeoutAt(d time.Duration, node NodeID, msgID uint64) {
	b.metrics.ExpiriesScheduled++ // on loop: Request runs there
	b.loop.schedule(d, liveTimer{node: node, arg: msgID})
}

// fireExpiry runs a request expiry entry on the loop.
func (b *liveBase) fireExpiry(node NodeID, msgID uint64) {
	b.metrics.ExpiriesFired++
	if n := b.Node(node); n != nil {
		n.expire(msgID)
	}
}

// defaultRPCTimeout is the expiry used when a caller passes none.
func (b *liveBase) defaultRPCTimeout() time.Duration { return b.cfg.RPCTimeout }

// metricsAt returns the transport-wide metrics (live transports keep one
// account).
func (b *liveBase) metricsAt(NodeID) *Metrics { return &b.metrics }

// noteLive adjusts the live-node count (Node.Stop/Restart bookkeeping).
func (b *liveBase) noteLive(delta int) { b.live.Add(int64(delta)) }

// installFaults attaches a fault plan (see NewFaultTransport): the
// medium's send hook reads b.flt, and the plan's crash/restart schedule
// is armed as wall-clock timers measured from the transport's start.
// Install before traffic flows.
func (b *liveBase) installFaults(plan *faults.Plan) {
	if plan == nil {
		return
	}
	if err := plan.Validate(); err != nil {
		panic(fmt.Sprintf("p2p: fault plan: %v", err))
	}
	b.flt = plan
	now := time.Since(b.start)
	for _, ev := range plan.NodeEvents(b.pop) {
		ev := ev
		d := ev.At - now
		if d < 0 {
			d = 0
		}
		b.After(NodeID(ev.Node), d, func() {
			n := b.Node(NodeID(ev.Node))
			if n == nil {
				return
			}
			if ev.Up {
				n.Restart()
			} else {
				n.Stop()
			}
		})
	}
}

// faultNow is the plan clock of a live transport: wall time since start.
func (b *liveBase) faultNow() time.Duration { return time.Since(b.start) }

// oneWayDelay splits an RTT into the two legs the simulator uses: the
// request leg gets rtt/2 rounded down, the response leg the remainder, so
// a ping's round trip equals the matrix entry at nanosecond resolution.
func oneWayDelay(rttMs float64, resp bool) time.Duration {
	full := durOf(rttMs)
	half := full / 2
	if resp {
		return full - half
	}
	return half
}
