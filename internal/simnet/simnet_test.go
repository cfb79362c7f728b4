package simnet

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func fastConfig() Config {
	return Config{BaseLatency: 100 * time.Microsecond, Jitter: 0, Bandwidth: 0, InboxSize: 64, Seed: 7}
}

func recvWithin(t *testing.T, ep *Endpoint, d time.Duration) Message {
	t.Helper()
	select {
	case m := <-ep.Inbox:
		return m
	case <-time.After(d):
		t.Fatalf("endpoint %v: no message within %v", ep.ID, d)
		return Message{}
	}
}

func TestSendDeliver(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	if !a.Send(b.ID, "ping", "hello") {
		t.Fatal("send refused")
	}
	m := recvWithin(t, b, time.Second)
	if m.Type != "ping" || m.Payload.(string) != "hello" || m.From != 1 {
		t.Fatalf("bad message: %+v", m)
	}
	if st := n.Stats(); st.MessagesSent != 1 || st.BytesSent == 0 {
		t.Fatalf("byte accounting missing: %+v", st)
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	eps := make([]*Endpoint, 5)
	for i := range eps {
		eps[i] = n.Join(NodeID(i))
	}
	eps[0].Broadcast("blk", 42)
	for i := 1; i < 5; i++ {
		recvWithin(t, eps[i], time.Second)
	}
	select {
	case <-eps[0].Inbox:
		t.Fatal("sender received own broadcast")
	case <-time.After(5 * time.Millisecond):
	}
}

func TestCrashBlocksTraffic(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	n.Crash(2)
	if a.Send(2, "x", nil) {
		t.Fatal("send to crashed node accepted")
	}
	if !n.Crashed(2) {
		t.Fatal("Crashed(2) = false")
	}
	n.Recover(2)
	if !a.Send(2, "x", nil) {
		t.Fatal("send after recover refused")
	}
	recvWithin(t, b, time.Second)
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b, c := n.Join(1), n.Join(2), n.Join(3)
	n.PartitionGroups([][]NodeID{{1}}) // 1 | 2,3
	if a.Send(2, "x", nil) {
		t.Fatal("cross-partition send accepted")
	}
	if !b.Send(3, "x", nil) {
		t.Fatal("same-side send refused")
	}
	recvWithin(t, c, time.Second)
	n.Heal()
	if !a.Send(2, "x", nil) {
		t.Fatal("post-heal send refused")
	}
	recvWithin(t, b, time.Second)
}

func TestInboxOverflowDrops(t *testing.T) {
	cfg := fastConfig()
	cfg.InboxSize = 4
	n := New(cfg)
	a, _ := n.Join(1), n.Join(2)
	for i := 0; i < 50; i++ {
		a.Send(2, "flood", i)
	}
	time.Sleep(50 * time.Millisecond) // let delivery timers fire
	n.Close()
	st := n.Stats()
	if st.MessagesDropped == 0 {
		t.Fatal("expected drops from full inbox")
	}
	if st.MessagesSent != 50 {
		t.Fatalf("sent = %d, want 50", st.MessagesSent)
	}
}

func TestCorruptionFlag(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	n.SetCorruptRate(1.0, 1)
	a.Send(2, "x", nil)
	m := recvWithin(t, b, time.Second)
	if !m.Corrupt {
		t.Fatal("message should be corrupted")
	}
	n.SetCorruptRate(0, 1)
	a.Send(2, "x", nil)
	if m := recvWithin(t, b, time.Second); m.Corrupt {
		t.Fatal("corruption not cleared")
	}
}

func TestExtraDelay(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	n.SetDelay(150*time.Millisecond, 2)
	start := time.Now()
	a.Send(2, "x", nil)
	recvWithin(t, b, time.Second)
	if time.Since(start) < 100*time.Millisecond {
		t.Fatal("extra delay not applied")
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestBandwidthTransmissionDelay(t *testing.T) {
	cfg := fastConfig()
	cfg.Bandwidth = 1_000_000 // 1 MB/s -> 100 KB takes 100 ms
	n := New(cfg)
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	start := time.Now()
	a.Send(2, "blob", sized{100_000})
	recvWithin(t, b, 2*time.Second)
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("transmission delay not applied")
	}
	if got := n.Stats().BytesSent; got != 100_000 {
		t.Fatalf("bytes = %d, want 100000", got)
	}
}

func TestRejoinReplacesEndpoint(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a := n.Join(1)
	_ = n.Join(2)
	b2 := n.Join(2) // rejoin
	a.Send(2, "x", nil)
	recvWithin(t, b2, time.Second)
}

func TestSendAfterCloseRefused(t *testing.T) {
	n := New(fastConfig())
	a, _ := n.Join(1), n.Join(2)
	n.Close()
	if a.Send(2, "x", nil) {
		t.Fatal("send after close accepted")
	}
}

func TestLinkFaultsDropAll(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	n.SetLinkFaults(LinkFaults{Drop: 1.0}, 1)
	for i := 0; i < 20; i++ {
		if !a.Send(2, "x", i) {
			t.Fatal("chaos drop must look like success to the sender")
		}
	}
	select {
	case <-b.Inbox:
		t.Fatal("message delivered through Drop=1.0 link")
	case <-time.After(20 * time.Millisecond):
	}
	if got := n.Stats().MessagesDropped; got != 20 {
		t.Fatalf("MessagesDropped = %d, want 20", got)
	}
	// A zero profile clears the faults.
	n.SetLinkFaults(LinkFaults{}, 1)
	a.Send(2, "x", nil)
	recvWithin(t, b, time.Second)
}

func TestLinkFaultsDuplicate(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	n.SetLinkFaults(LinkFaults{Dup: 1.0}, 1)
	a.Send(2, "x", nil)
	if got := inboxCounts(n, []*Endpoint{b})[0]; got != 2 {
		t.Fatalf("%d deliveries of one send, want 2 (the message and its duplicate)", got)
	}
}

func TestLinkFaultsReorderCounts(t *testing.T) {
	// A latency long next to timer slack, so that a message sent without
	// the reorder delay arrives well before twice the latency.
	cfg := fastConfig()
	cfg.BaseLatency = 20 * time.Millisecond
	n := New(cfg)
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	n.SetLinkFaults(LinkFaults{Reorder: 1.0}) // no ids: every sender
	var sent [10]time.Time
	for i := range sent {
		sent[i] = time.Now()
		a.Send(2, "x", i)
	}
	// A reordered message waits at least one BaseLatency beyond its own,
	// and a delivery never fires before it is due, so every message
	// arriving that late took the reorder branch. The extra delays are
	// drawn from a range far wider than the gaps between sends, so the
	// arrival order differs from the send order.
	least := 2 * cfg.BaseLatency
	var order []int
	for range sent {
		m := recvWithin(t, b, time.Second) // delayed, never lost
		i := m.Payload.(int)
		if took := time.Since(sent[i]); took < least {
			t.Fatalf("message %d delivered after %v, want at least %v", i, took, least)
		}
		order = append(order, i)
	}
	if slices.IsSorted(order) {
		t.Fatalf("arrival order %v is the send order: nothing was reordered", order)
	}
}

func TestPartitionGroupsImplicitGroupZero(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b, c := n.Join(1), n.Join(2), n.Join(3)
	// {2} is its own group; 1 and 3 fall into implicit group 0.
	n.PartitionGroups([][]NodeID{{2}})
	if a.Send(2, "x", nil) {
		t.Fatal("cross-group send accepted")
	}
	if !a.Send(3, "x", nil) {
		t.Fatal("implicit-group send refused")
	}
	recvWithin(t, c, time.Second)
	n.Heal()
	if !b.Send(1, "x", nil) {
		t.Fatal("post-heal send refused")
	}
	recvWithin(t, a, time.Second)
}

// TestHealKeepsLinkFaults pins Heal's scope: it lifts the partition and
// nothing else, so a link-fault profile outlives it until its own
// setter clears it (the chaos timeline clears the two separately).
func TestHealKeepsLinkFaults(t *testing.T) {
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	n.PartitionGroups([][]NodeID{{1}})
	n.SetLinkFaults(LinkFaults{Dup: 1.0}, 1)
	n.Heal()
	if !a.Send(2, "x", nil) {
		t.Fatal("Heal did not lift the partition")
	}
	recvWithin(t, b, time.Second)
	recvWithin(t, b, time.Second) // the duplicate: the profile survived
}

// inboxCounts waits for every queued delivery, then reports how many
// messages each endpoint holds.
func inboxCounts(n *Network, eps []*Endpoint) []int {
	for _, ep := range eps {
		for {
			ep.qmu.Lock()
			queued := len(ep.queue)
			ep.qmu.Unlock()
			if queued == 0 {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		// A firing that popped the last deliveries holds fireMu until it
		// has handed them over.
		ep.fireMu.Lock()
		ep.fireMu.Unlock()
	}
	out := make([]int, len(eps))
	for i, ep := range eps {
		out[i] = len(ep.Inbox)
	}
	return out
}

// TestBroadcastSendsInIDOrder: a broadcast walks the joined IDs in
// ascending order whatever order they joined in, so the k-th draw from
// the seeded rng belongs to the k-th smallest peer. Observed through a
// Drop=0.5 link: exactly one draw per destination decides whether it is
// lost, so the set of receivers is a function of the seed alone.
func TestBroadcastSendsInIDOrder(t *testing.T) {
	const sender = 3
	for rep := 0; rep < 50; rep++ {
		seed := int64(rep)
		n := New(Config{InboxSize: 8, Seed: seed})
		eps := make([]*Endpoint, 7)
		for _, id := range []NodeID{3, 0, 6, 1, 5, 2, 4} {
			eps[id] = n.Join(id)
		}
		n.SetLinkFaults(LinkFaults{Drop: 0.5}, sender)
		eps[sender].Broadcast("x", nil)
		got := inboxCounts(n, eps)
		n.Close()

		rng := rand.New(rand.NewSource(seed))
		for id := range eps {
			want := 0
			if id != sender && rng.Float64() >= 0.5 {
				want = 1
			}
			if got[id] != want {
				t.Fatalf("seed %d: node %d holds %d messages, want %d (receivers %v): "+
					"draws were not handed out in ascending ID order", seed, id, got[id], want, got)
			}
		}
	}
}

// TestSameSeedSameFate: two networks built from one seed hand identical
// sends identical fates link by link — jitter, drop and duplicate draws
// all come off the one rng in send order, so a difference anywhere would
// shift every later link's outcome.
func TestSameSeedSameFate(t *testing.T) {
	run := func() ([]int, Stats) {
		n := New(Config{Jitter: 300 * time.Microsecond, InboxSize: 64, Seed: 99})
		defer n.Close()
		eps := make([]*Endpoint, 7)
		for i := range eps {
			eps[i] = n.Join(NodeID(i))
		}
		n.SetLinkFaults(LinkFaults{Drop: 0.3, Dup: 0.3})
		for round := 0; round < 4; round++ {
			for i, ep := range eps {
				ep.Broadcast("x", nil)
				ep.Send(NodeID((i+round+1)%len(eps)), "y", nil)
			}
		}
		return inboxCounts(n, eps), n.Stats()
	}
	a, sa := run()
	b, sb := run()
	if !slices.Equal(a, b) || sa != sb {
		t.Fatalf("one seed, two outcomes:\n%v %+v\n%v %+v", a, sa, b, sb)
	}
	// No node is crashed or partitioned, so every drop is a fault draw;
	// MessagesSent counts each surviving send once, its duplicate never.
	delivered := 0
	for _, c := range a {
		delivered += c
	}
	if sa.MessagesDropped == 0 || uint64(delivered) <= sa.MessagesSent {
		t.Fatalf("fault draws never fired: %d delivered, %+v", delivered, sa)
	}
}

// TestCloseDuringSend: Close may run while senders are mid-Send. Each
// delivery timer must be counted before Close starts waiting or never
// be started; counting one while Close waits is WaitGroup misuse, which
// the race detector reports and the runtime may panic on. Nothing lands
// in an inbox once Close has returned.
func TestCloseDuringSend(t *testing.T) {
	for round := 0; round < 300; round++ {
		n := New(Config{InboxSize: 1024, Seed: int64(round)})
		a, b := n.Join(1), n.Join(2)
		var senders sync.WaitGroup
		for s := 0; s < 4; s++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for i := 0; i < 200; i++ {
					a.Send(2, "x", i)
				}
			}()
		}
		n.Close()
		held := len(b.Inbox)
		senders.Wait()
		if got := len(b.Inbox); got != held {
			t.Fatalf("round %d: %d messages delivered after Close returned", round, got-held)
		}
	}
}

// TestLinkDeliversInDueOrder: on a link without jitter every message is
// due BaseLatency after its send, so the inbox receives them in send
// order. Messages due within one timer wake must not race each other to
// the inbox.
func TestLinkDeliversInDueOrder(t *testing.T) {
	const msgs = 500
	n := New(Config{BaseLatency: 200 * time.Microsecond})
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	for i := 0; i < msgs; i++ {
		a.Send(2, "x", i)
	}
	for i := 0; i < msgs; i++ {
		if m := recvWithin(t, b, time.Second); m.Payload != i {
			t.Fatalf("position %d holds message %v: a zero-jitter link reordered", i, m.Payload)
		}
	}
}

// TestCloseDoesNotWaitOutDelay: Close discards what is queued instead
// of waiting for it to fall due, and nothing lands in an inbox after.
func TestCloseDoesNotWaitOutDelay(t *testing.T) {
	n := New(fastConfig())
	a, b := n.Join(1), n.Join(2)
	n.SetDelay(time.Hour, 2)
	if !a.Send(2, "x", nil) {
		t.Fatal("send refused")
	}
	closed := make(chan struct{})
	go func() { n.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited out a queued delivery's delay")
	}
	if len(b.Inbox) != 0 {
		t.Fatal("a delivery landed although the network closed")
	}
}

// TestSendAllocBudget holds a message's whole trip — Send, the
// endpoint's queue and timers, the hand-off to the inbox — to no heap
// allocation once the queue and the timer pool have grown to their
// working size. The payload is a pointer, so boxing it in the Message
// allocates nothing either. The budget is per round, not per message,
// so an allocation per firing or per batch fails it too.
func TestSendAllocBudget(t *testing.T) {
	const (
		msgs    = 64
		ceiling = 0 // allocations per round: 2 per message (a timer and a closure) before the delivery queue
	)
	n := New(fastConfig())
	defer n.Close()
	a, b := n.Join(1), n.Join(2)
	payload := &sized{100}
	round := func() {
		for i := 0; i < msgs; i++ {
			a.Send(2, "x", payload)
		}
		for i := 0; i < msgs; i++ {
			<-b.Inbox
		}
		// A message's own timer can go off after an earlier firing
		// delivered it; wait for every timer to be idle again, so the
		// next round reuses them instead of growing the pool.
		for !timersIdle(b) {
			runtime.Gosched()
		}
	}
	for i := 0; i < 10; i++ {
		round() // warm-up: the queue and the timer pool grow to their working size
	}
	perRound := testing.AllocsPerRun(50, round)
	t.Logf("send and deliver: %v allocations per %d-message round", perRound, msgs)
	if perRound > ceiling {
		t.Errorf("send and deliver: %v allocations per %d-message round, ceiling %d", perRound, msgs, ceiling)
	}
}

// timersIdle reports whether every timer ep has made is back in its
// idle list: none is armed or waiting to fire.
func timersIdle(ep *Endpoint) bool {
	ep.qmu.Lock()
	defer ep.qmu.Unlock()
	return len(ep.idle) == len(ep.timers)
}
