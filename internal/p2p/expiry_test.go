// Correctness of the live transports' deadline heap (live.go): the one
// timer re-arms for an earlier deadline, answered requests never time out,
// Stop/Restart discard parked expiries, the expiry ledger balances once
// the heap drains, and Close leaves no goroutine behind. Every test runs
// on both Loopback and UDP.

package p2p

import (
	"runtime"
	"testing"
	"time"
)

// liveTestTransport is what these tests need of a live transport.
type liveTestTransport interface {
	Do(fn func())
	Node(id NodeID) *Node
	SerialMetrics() *Metrics
}

// liveFixture is a live transport with two answering nodes (0 and 1) and
// one ID no request to which is ever answered.
type liveFixture struct {
	tr    liveTestTransport
	dead  NodeID
	close func()
}

// liveFixtures builds each live transport's fixture on demand.
var liveFixtures = []struct {
	name string
	make func(t *testing.T) liveFixture
}{
	{"loopback", func(t *testing.T) liveFixture {
		lb := NewLoopback(lineMatrix(4), Config{RPCTimeout: 2 * time.Second}, 1)
		lb.Do(func() {
			lb.AddNode(0)
			lb.AddNode(1)
			lb.AddNode(3).Stop()
		})
		return liveFixture{tr: lb, dead: 3, close: lb.Close}
	}},
	{"udp", func(t *testing.T) liveFixture {
		u := newUDPCluster(t, 2, Config{RPCTimeout: 2 * time.Second}, 1)
		return liveFixture{tr: u, dead: 2, close: func() { u.Close() }}
	}},
}

// forEachLive runs fn as a subtest on a fresh fixture of each transport.
func forEachLive(t *testing.T, fn func(t *testing.T, f liveFixture)) {
	for _, lf := range liveFixtures {
		t.Run(lf.name, func(t *testing.T) {
			f := lf.make(t)
			defer f.close()
			fn(t, f)
		})
	}
}

// expiryLedger reads the scheduled and fired expiry counts on the loop.
func expiryLedger(f liveFixture) (scheduled, fired, timeouts int64) {
	f.tr.Do(func() {
		m := f.tr.SerialMetrics()
		scheduled, fired, timeouts = m.ExpiriesScheduled, m.ExpiriesFired, m.Timeouts
	})
	return
}

// waitLedgerDrained polls until every scheduled expiry has fired.
func waitLedgerDrained(t *testing.T, f liveFixture, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		s, fired, _ := expiryLedger(f)
		if s == fired {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("expiry ledger not drained: scheduled=%d fired=%d", s, fired)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveExpiryRearm parks a 2 s expiry, then a 50 ms one behind it: the
// single timer must re-arm for the earlier deadline, so the short request
// times out near 50 ms, not after the long one.
func TestLiveExpiryRearm(t *testing.T) {
	forEachLive(t, func(t *testing.T, f liveFixture) {
		fired := make(chan time.Duration, 1)
		var start time.Time
		f.tr.Do(func() {
			n := f.tr.Node(0)
			n.Request(f.dead, MsgPing, nil, 2*time.Second, nil, nil)
			start = time.Now()
			n.Request(f.dead, MsgPing, nil, 50*time.Millisecond,
				func(Envelope) { t.Error("dead peer answered") },
				func() { fired <- time.Since(start) })
		})
		select {
		case d := <-fired:
			if d < 50*time.Millisecond || d > time.Second {
				t.Fatalf("50 ms request timed out after %v", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("50 ms request never timed out")
		}
	})
}

// TestLiveAnsweredNeverTimeout issues a burst of answered requests whose
// expiries stay parked after the replies: when they pop, none may call
// onTimeout, and the drained ledger balances.
func TestLiveAnsweredNeverTimeout(t *testing.T) {
	forEachLive(t, func(t *testing.T, f liveFixture) {
		const reqs = 200
		replies := make(chan struct{}, reqs)
		f.tr.Do(func() {
			n := f.tr.Node(0)
			for i := 0; i < reqs; i++ {
				n.Request(1, MsgPing, nil, time.Second,
					func(Envelope) { replies <- struct{}{} },
					func() { t.Error("answered request timed out") })
			}
		})
		for i := 0; i < reqs; i++ {
			select {
			case <-replies:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d replies arrived", i, reqs)
			}
		}
		waitLedgerDrained(t, f, 5*time.Second)
		if s, _, timeouts := expiryLedger(f); s != reqs || timeouts != 0 {
			t.Fatalf("scheduled=%d timeouts=%d, want %d and 0", s, timeouts, reqs)
		}
	})
}

// TestLiveStopDiscardsExpiries stops and restarts a node while its
// requests' expiries are parked: they pop into the new life and must find
// nothing to time out.
func TestLiveStopDiscardsExpiries(t *testing.T) {
	forEachLive(t, func(t *testing.T, f liveFixture) {
		f.tr.Do(func() {
			n := f.tr.Node(0)
			for i := 0; i < 20; i++ {
				n.Request(f.dead, MsgPing, nil, 30*time.Millisecond,
					func(Envelope) { t.Error("dead peer answered") },
					func() { t.Error("expiry parked before Stop fired into the restarted node") })
			}
			n.Stop()
			n.Restart()
		})
		waitLedgerDrained(t, f, 5*time.Second)
		if s, _, timeouts := expiryLedger(f); s != 20 || timeouts != 0 {
			t.Fatalf("scheduled=%d timeouts=%d, want 20 and 0", s, timeouts)
		}
	})
}

// TestLiveCloseLeavesNoGoroutines runs traffic with expiries still parked,
// closes the transport, and waits for the goroutine count to return to
// its baseline: the loop, the read loops and the heap's timer are gone.
func TestLiveCloseLeavesNoGoroutines(t *testing.T) {
	for _, lf := range liveFixtures {
		t.Run(lf.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			f := lf.make(t)
			done := make(chan struct{})
			f.tr.Do(func() {
				n := f.tr.Node(0)
				n.Request(f.dead, MsgPing, nil, time.Hour, nil, nil)
				n.Request(1, MsgPing, nil, time.Hour, func(Envelope) { close(done) }, nil)
			})
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("ping never answered")
			}
			f.close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestLiveLoopFIFO posts from one goroutine while the loop drains, so the
// queue's array is both reset when empty and compacted when full with a
// run prefix: closures must still run once each, in posting order.
func TestLiveLoopFIFO(t *testing.T) {
	l := newLiveLoop(nil)
	const posts = 20000
	next := 0 // loop-confined
	for i := 0; i < posts; i++ {
		i := i
		l.post(func() {
			if i != next {
				t.Errorf("closure %d ran at position %d", i, next)
			}
			next++
		})
		if i%64 == 0 {
			runtime.Gosched() // let the loop catch up, leaving a run prefix
		}
	}
	l.close() // drains the queue
	if next != posts {
		t.Fatalf("%d of %d closures ran", next, posts)
	}
}
