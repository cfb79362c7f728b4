// Package simnet provides the simulated cluster network that every
// blockchain node in this repository communicates over. It models a
// commodity LAN (the paper's 48-node, 1 Gb switch testbed): per-message
// propagation latency, transmission time proportional to message size,
// bounded per-node inboxes, and byte/message accounting for the network
// utilization figures.
//
// It also implements the paper's fault and attack injection (§3.3):
// crash failure, arbitrary message delay, random response (message
// corruption), and network partition used by the double-spending /
// selfish-mining attack simulation.
//
// A send decides a message's fate and modelled delay at once, from the
// network's seeded rng, pushes {due, seq, message} onto the destination
// endpoint's queue (a min-heap on due time, then send order) and arms a
// timer for it from the endpoint's pool. A firing delivers every due
// entry, re-checking the destination at delivery time (closed,
// replaced, crashed, partitioned, inbox full); one firing delivers at a
// time, and one that finds another delivering leaves its entries to it.
// One timer per delivery, not per endpoint: the runtime runs a timer
// only on the processor whose heap holds it, so a lone timer waits out
// whatever runs there, up to a 10 ms preemption slice, and under
// unpaced load that starved the nodes (DESIGN.md § Modelled versus
// real). Lock order: fireMu, then the network's mu, then qmu; send
// takes qmu under mu's read lock, so a firing pops under qmu and takes
// the read lock only after releasing it. The host still fires a
// sub-millisecond timer at its next millisecond edge, so a hop takes
// ≈ 1.07 ms.
package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies an endpoint on the network.
type NodeID int

// Message is a single network delivery. Payload is passed by reference
// (the network is in-process); its wire size (a Sizer's, else 64
// bytes) is counted in BytesSent and sets the transmission delay.
// Corrupt marks a message damaged by the random-response fault injector
// — receivers drop it as if it failed authentication.
type Message struct {
	From    NodeID
	To      NodeID
	Type    string
	Payload any
	Corrupt bool
}

// Sizer lets payloads report their encoded size for accounting.
type Sizer interface{ WireSize() int }

// Config controls link characteristics.
type Config struct {
	// BaseLatency and Jitter model propagation delay: each message waits
	// BaseLatency + U[0,Jitter) before delivery.
	BaseLatency time.Duration
	Jitter      time.Duration
	// Bandwidth in bytes/second models transmission time (size/bandwidth
	// added to the delay). Zero disables transmission delay.
	Bandwidth int64
	// InboxSize bounds each endpoint's receive queue. When an inbox is
	// full the message is dropped — this is the mechanism behind the
	// Hyperledger view-divergence collapse the paper observed at >16
	// nodes ("consensus messages are rejected ... on account of the
	// message channel being full").
	InboxSize int
	// Seed makes fault injection reproducible.
	Seed int64
}

// DefaultConfig mirrors the paper's testbed at the repository's 25x time
// scale: sub-millisecond LAN latency and a 1 Gb/s link.
func DefaultConfig() Config {
	return Config{
		BaseLatency: 200 * time.Microsecond,
		Jitter:      300 * time.Microsecond,
		Bandwidth:   125_000_000, // 1 Gb/s
		InboxSize:   4096,
		Seed:        1,
	}
}

// Stats is a snapshot of network-wide counters. Corrupted and Delayed
// count the sends the corrupt and delay injectors reached.
type Stats struct {
	MessagesSent    uint64
	MessagesDropped uint64
	BytesSent       uint64
	Corrupted       uint64
	Delayed         uint64
}

// LinkFaults is a per-sender probabilistic link fault profile: each
// outgoing message is independently dropped with probability Drop,
// delivered twice with probability Dup, and delayed by an extra random
// interval (so later messages overtake it) with probability Reorder.
type LinkFaults struct {
	Drop    float64
	Dup     float64
	Reorder float64
}

func (f LinkFaults) zero() bool { return f.Drop <= 0 && f.Dup <= 0 && f.Reorder <= 0 }

// Network is the shared medium connecting all endpoints.
type Network struct {
	cfg Config

	mu        sync.RWMutex
	endpoints map[NodeID]*Endpoint
	// ids holds the joined IDs in ascending order. Join replaces the
	// slice instead of writing into it, so Broadcast walks a snapshot
	// without holding the lock or allocating.
	ids     []NodeID
	crashed map[NodeID]bool
	// group assigns each node to a partition group; messages crossing
	// group boundaries are dropped while partitioned is true.
	partitioned bool
	group       map[NodeID]int
	extraDelay  map[NodeID]time.Duration
	corruptRate map[NodeID]float64
	// faults holds each sender's probabilistic link fault profile.
	faults map[NodeID]LinkFaults

	rngMu sync.Mutex
	rng   *rand.Rand

	msgs    atomic.Uint64
	dropped atomic.Uint64
	bytes   atomic.Uint64
	// corrupted and delayed count the sends the fault injectors reached:
	// marked corrupt, or given extra delay by SetDelay.
	corrupted atomic.Uint64
	delayed   atomic.Uint64

	// epoch is the zero of the delivery clock (now).
	epoch time.Time
	// closed is set under mu's write lock; send reads it and enqueues
	// under the read lock, deliver reads it and delivers under the read
	// lock, so no message is queued or delivered once Close has set it.
	closed bool
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 4096
	}
	return &Network{
		cfg:         cfg,
		endpoints:   make(map[NodeID]*Endpoint),
		crashed:     make(map[NodeID]bool),
		group:       make(map[NodeID]int),
		extraDelay:  make(map[NodeID]time.Duration),
		corruptRate: make(map[NodeID]float64),
		faults:      make(map[NodeID]LinkFaults),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		epoch:       time.Now(),
	}
}

// Endpoint is one node's attachment point: an ID plus a bounded inbox,
// and the queue of deliveries on their way to it.
type Endpoint struct {
	ID    NodeID
	Inbox chan Message
	net   *Network

	// fireMu lets one firing at a time deliver, so Inbox receives in
	// (due, seq) order; batch is its scratch. pending is set by every
	// firing and cleared by the one holding fireMu before it pops.
	fireMu  sync.Mutex
	batch   []delivery
	pending atomic.Bool
	// qmu guards queue, a min-heap on (due, seq), and seq; and timers,
	// every timer the endpoint has made, of which idle indexes the ones
	// not armed.
	qmu    sync.Mutex
	queue  []delivery
	seq    uint64
	timers []*time.Timer
	idle   []int
}

// Join attaches a new endpoint. Joining an existing ID replaces the old
// endpoint (used by recovery after crash).
func (n *Network) Join(id NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &Endpoint{ID: id, Inbox: make(chan Message, n.cfg.InboxSize), net: n}
	if _, rejoin := n.endpoints[id]; !rejoin {
		i, _ := slices.BinarySearch(n.ids, id)
		n.ids = slices.Insert(slices.Clone(n.ids), i, id)
	}
	n.endpoints[id] = ep
	return ep
}

// Send transmits a message from ep to the given destination. It returns
// false if the message was dropped at origin (crashed sender/receiver or
// partition); in-flight drops (full inbox) are only visible in counters.
func (ep *Endpoint) Send(to NodeID, typ string, payload any) bool {
	return ep.net.send(ep, to, typ, payload)
}

// Broadcast sends the message to every other endpoint, in ascending ID
// order: which link gets which draw from the network's seeded rng is
// then a function of the seed and the sends, not of map iteration.
func (ep *Endpoint) Broadcast(typ string, payload any) {
	ep.net.mu.RLock()
	ids := ep.net.ids
	ep.net.mu.RUnlock()
	for _, id := range ids {
		if id != ep.ID {
			ep.net.send(ep, id, typ, payload)
		}
	}
}

func payloadSize(payload any) int {
	if s, ok := payload.(Sizer); ok {
		return s.WireSize()
	}
	return 64 // conservative default for small control messages
}

func (n *Network) send(from *Endpoint, to NodeID, typ string, payload any) bool {
	size := payloadSize(payload)

	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return false
	}
	dst, ok := n.endpoints[to]
	if !ok || n.crashed[from.ID] || n.crashed[to] || n.partitioned && n.group[from.ID] != n.group[to] {
		n.dropped.Add(1)
		return false
	}
	extra := n.extraDelay[from.ID] + n.extraDelay[to]
	delay := n.cfg.BaseLatency + extra
	corrupt := n.corruptRate[from.ID]
	faults := n.faults[from.ID]

	duplicate := false
	n.rngMu.Lock()
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	isCorrupt := corrupt > 0 && n.rng.Float64() < corrupt
	if !faults.zero() {
		if faults.Drop > 0 && n.rng.Float64() < faults.Drop {
			// Lost in flight: the sender believes the send succeeded, so
			// the loss is visible only in counters — like real packet loss,
			// unlike the origin drops above.
			n.rngMu.Unlock()
			n.dropped.Add(1)
			return true
		}
		duplicate = faults.Dup > 0 && n.rng.Float64() < faults.Dup
		if faults.Reorder > 0 && n.rng.Float64() < faults.Reorder {
			// Hold the message long enough that later traffic on the same
			// link overtakes it.
			delay += n.cfg.BaseLatency + time.Duration(n.rng.Int63n(int64(4*n.cfg.BaseLatency+1)))
		}
	}
	n.rngMu.Unlock()

	if n.cfg.Bandwidth > 0 {
		delay += time.Duration(int64(size) * int64(time.Second) / n.cfg.Bandwidth)
	}

	n.msgs.Add(1)
	n.bytes.Add(uint64(size))
	if isCorrupt {
		n.corrupted.Add(1)
	}
	if extra > 0 {
		n.delayed.Add(1)
	}

	msg := Message{From: from.ID, To: to, Type: typ, Payload: payload, Corrupt: isCorrupt}
	due := n.now() + delay
	dst.enqueue(due, msg)
	if duplicate {
		dst.enqueue(due+n.cfg.BaseLatency, msg)
	}
	return true
}

// now is the time since the network was made: the clock deliveries are
// due on.
func (n *Network) now() time.Duration { return time.Since(n.epoch) }

// delivery is one queued delivery attempt of msg. seq, the endpoint's
// enqueue count, orders deliveries due at the same instant by send.
type delivery struct {
	due time.Duration
	seq uint64
	msg Message
}

func (d *delivery) before(e *delivery) bool {
	return d.due < e.due || d.due == e.due && d.seq < e.seq
}

// enqueue queues one delivery of msg, due at due, and arms a timer for
// it. The caller holds n.mu's read lock.
func (ep *Endpoint) enqueue(due time.Duration, msg Message) {
	ep.qmu.Lock()
	defer ep.qmu.Unlock()
	ep.queue = append(ep.queue, delivery{due: due, seq: ep.seq, msg: msg})
	ep.seq++
	q, i := ep.queue, len(ep.queue)-1
	for i > 0 && q[i].before(&q[(i-1)/2]) {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
		i = (i - 1) / 2
	}
	d := due - ep.net.now()
	if k := len(ep.idle); k > 0 {
		ep.timers[ep.idle[k-1]].Reset(d)
		ep.idle = ep.idle[:k-1]
		return
	}
	t := len(ep.timers)
	ep.timers = append(ep.timers, time.AfterFunc(d, func() { ep.fire(t) }))
}

// pop removes the head of the queue into d. The caller holds qmu.
func (ep *Endpoint) pop(d *delivery) {
	q := ep.queue
	last := len(q) - 1
	*d, q[0], q[last] = q[0], q[last], delivery{}
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < len(q) && q[c+1].before(&q[c]) {
			c++
		}
		if c >= len(q) || !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	ep.queue = q
}

// fire runs when timer t goes off. It returns t to idle and delivers
// what is due unless another firing is delivering; that one then goes
// round again, because pending is set. The deliveries are moved into
// batch under qmu and handed over after releasing it, so a firing never
// takes n.mu while holding qmu (send takes qmu under n.mu's read lock;
// with a writer waiting, the reverse order deadlocks). A delivery whose
// own timer finds it gone went out with an earlier one.
func (ep *Endpoint) fire(t int) {
	ep.qmu.Lock()
	ep.idle = append(ep.idle, t)
	ep.qmu.Unlock()
	ep.pending.Store(true)
	for ep.pending.Load() && ep.fireMu.TryLock() {
		ep.pending.Store(false)
		ep.qmu.Lock()
		now, batch := ep.net.now(), ep.batch
		for len(ep.queue) > 0 && ep.queue[0].due <= now {
			batch = append(batch, delivery{})
			ep.pop(&batch[len(batch)-1])
		}
		ep.qmu.Unlock()
		ep.net.deliver(ep, batch)
		clear(batch)
		ep.batch = batch[:0]
		ep.fireMu.Unlock()
	}
}

// deliver re-checks the destination's liveness (crash, partition,
// endpoint replacement) at delivery time and hands each message to the
// inbox. It holds n.mu's read lock throughout, so every delivery falls
// wholly before or after Close sets closed.
func (n *Network) deliver(dst *Endpoint, batch []delivery) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return
	}
	to := dst.ID
	gone := n.endpoints[to] != dst || n.crashed[to]
	for i := range batch {
		msg := &batch[i].msg
		if gone || n.partitioned && n.group[msg.From] != n.group[to] {
			n.dropped.Add(1)
			continue
		}
		select {
		case dst.Inbox <- *msg:
		default:
			// Inbox full: the receiving process cannot keep up and the
			// message is lost, exactly like a saturated gRPC/message
			// channel in the real system.
			n.dropped.Add(1)
		}
	}
}

// Crash stops delivery to and from id until Recover.
func (n *Network) Crash(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Recover reverses Crash.
func (n *Network) Recover(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether id is currently crashed.
func (n *Network) Crashed(id NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[id]
}

// PartitionGroups splits the network into an arbitrary number of
// mutually-isolated groups: nodes in groups[i] can only talk to members
// of the same group, and any node not listed forms group 0 together with
// other unlisted nodes; traffic across a cut is dropped. One listed
// group is the paper's two-way split, the attack primitive of §3.3
// (eclipse / BGP-hijack simulation); chaos runs use the multi-way
// partial partitions.
func (n *Network) PartitionGroups(groups [][]NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.endpoints {
		n.group[id] = 0
	}
	for i, g := range groups {
		for _, id := range g {
			n.group[id] = i + 1
		}
	}
	n.partitioned = true
}

// SetLinkFaults installs a probabilistic fault profile on all links
// originating at the given nodes (every node when none are given). A
// zero profile clears the faults.
func (n *Network) SetLinkFaults(f LinkFaults, ids ...NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	setPerNode(n, n.faults, f, f.zero(), ids)
}

// setPerNode sets m[id] = v for every id, or deletes the entries when off;
// no ids means every joined node. The caller holds n.mu.
func setPerNode[V any](n *Network, m map[NodeID]V, v V, off bool, ids []NodeID) {
	if len(ids) == 0 {
		for id := range n.endpoints {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		if off {
			delete(m, id)
		} else {
			m[id] = v
		}
	}
}

// Heal removes the partition; link faults, delays and corruption stay
// until cleared by their own setters.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned = false
}

// SetDelay injects extra one-way delay on all links touching the given
// nodes, every node when none are given (the paper's network-delay
// failure mode).
func (n *Network) SetDelay(d time.Duration, ids ...NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	setPerNode(n, n.extraDelay, d, d <= 0, ids)
}

// SetCorruptRate makes a fraction of messages sent by the given nodes,
// every node when none are given, arrive corrupted (the paper's
// random-response failure mode).
func (n *Network) SetCorruptRate(rate float64, ids ...NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	setPerNode(n, n.corruptRate, rate, rate <= 0, ids)
}

// Stats returns a snapshot of global counters.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesSent:    n.msgs.Load(),
		MessagesDropped: n.dropped.Load(),
		BytesSent:       n.bytes.Load(),
		Corrupted:       n.corrupted.Load(),
		Delayed:         n.delayed.Load(),
	}
}

// Close stops all deliveries at once: queued ones are discarded, and
// none reaches an inbox after Close returns. (A replaced endpoint's
// queue is left to its timers, whose deliveries see closed.)
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for _, ep := range n.endpoints {
		ep.qmu.Lock()
		for _, t := range ep.timers {
			t.Stop()
		}
		clear(ep.queue)
		ep.queue = ep.queue[:0]
		ep.qmu.Unlock()
	}
}

func (id NodeID) String() string { return fmt.Sprintf("n%d", int(id)) }
