package raft

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// The tests in this file drive cores directly: no Engine, no runner, no
// goroutine, no sleep. Time is a value the schedule advances, the wire is
// a queue the schedule drains, and the whole interleaving is the table.

type op int

const (
	wake    op = iota // the node's timer fires (or its pool signals)
	recv              // the nodes receive what is in flight to them, in send order
	drop              // what is in flight to the nodes is lost
	add               // txs (by nonce) reach the node's pool
	restart           // the node is killed and rebuilt from its saved meta and chain
	cut               // partition: nodes on one side, everyone else on the other
)

// event is one row of a schedule: at time t0+at (the clock never goes
// back; 0 keeps it), op happens on each of nodes in order.
type event struct {
	at    time.Duration
	op    op
	nodes []int
	txs   []uint64
}

// memMeta is a MetaStore that survives restart.
type memMeta map[string][]byte

func (m memMeta) SaveMeta(k string, v []byte) { m[k] = append([]byte(nil), v...) }
func (m memMeta) LoadMeta(k string) ([]byte, bool) {
	v, ok := m[k]
	return v, ok
}

// sim is n cores joined by a recording consensus.Net.
type sim struct {
	t      *testing.T
	opts   Options
	t0     time.Time
	now    time.Time
	peers  []simnet.NodeID
	cores  []*Core
	chains []*ledger.Chain
	pools  []*txpool.Pool
	metas  []memMeta
	flight []simnet.Message // sent, not yet received or dropped
	side   []int            // partition group per node
}

// wire is one node's consensus.Net: sends join the sim's flight queue
// unless the partition cuts them.
type wire struct {
	s    *sim
	self simnet.NodeID
}

func (w wire) Send(to simnet.NodeID, typ string, payload any) bool {
	if w.s.side[w.self] != w.s.side[to] {
		return false
	}
	w.s.flight = append(w.s.flight, simnet.Message{From: w.self, To: to, Type: typ, Payload: payload})
	return true
}

func (w wire) Broadcast(typ string, payload any) {
	for _, p := range w.s.peers {
		if p != w.self {
			w.Send(p, typ, payload)
		}
	}
}

func newSim(t *testing.T, n int, opts Options) *sim {
	s := &sim{t: t, opts: opts, t0: time.Unix(1_000_000, 0), side: make([]int, n)}
	s.now = s.t0
	for i := 0; i < n; i++ {
		s.peers = append(s.peers, simnet.NodeID(i))
	}
	for i := 0; i < n; i++ {
		pool := txpool.New(0)
		s.pools = append(s.pools, pool)
		s.chains = append(s.chains, newChain(t, pool))
		s.metas = append(s.metas, memMeta{})
		s.cores = append(s.cores, s.boot(i))
	}
	return s
}

func (s *sim) boot(i int) *Core {
	return NewCore(consensus.Context{
		Self:     simnet.NodeID(i),
		Endpoint: wire{s, simnet.NodeID(i)},
		Chain:    s.chains[i],
		Pool:     s.pools[i],
		Peers:    s.peers,
		Meta:     s.metas[i],
	}, s.opts, s.now)
}

func schedTx(nonce uint64) *types.Transaction {
	return &types.Transaction{Nonce: nonce, Contract: "donothing", Method: "nop", GasLimit: 100_000}
}

func (s *sim) run(schedule []event) {
	for _, ev := range schedule {
		if at := s.t0.Add(ev.at); at.After(s.now) {
			s.now = at
		}
		if ev.op == recv || ev.op == drop {
			s.deliver(ev)
			continue
		}
		for _, i := range ev.nodes {
			switch ev.op {
			case wake:
				s.cores[i].Step(s.now, consensus.Wake)
			case add:
				for _, nonce := range ev.txs {
					s.pools[i].Add(schedTx(nonce))
				}
			case restart:
				// The process dies: log tail, pool and timers go; the
				// chain (block journal) and the meta record stay.
				s.pools[i] = txpool.New(0)
				s.cores[i] = s.boot(i)
			case cut:
				s.side[i] = 1
			}
		}
		if ev.op == cut {
			// What was crossing the cut when it fell is lost.
			kept := s.flight[:0]
			for _, m := range s.flight {
				if s.side[m.From] == s.side[m.To] {
					kept = append(kept, m)
				}
			}
			s.flight = kept
		}
	}
}

// deliver hands (recv) or loses (drop) what was in flight to ev.nodes
// when the row began, in send order; what those steps send in turn waits
// for a later row.
func (s *sim) deliver(ev event) {
	batch := s.flight
	s.flight = nil
	var rest []simnet.Message
	for _, m := range batch {
		switch {
		case !slices.Contains(ev.nodes, int(m.To)):
			rest = append(rest, m)
		case ev.op == recv:
			s.cores[m.To].Step(s.now, m)
		}
	}
	s.flight = append(rest, s.flight...)
}

// TestScheduleLostAckElectsShorterLog is ROADMAP item 1's hypothesis as
// a schedule: an acknowledged entry lives only in the follower's memory,
// so a kill takes the ack back, and with it the overlap between the
// quorum that committed index k and the quorum that elects the next
// leader. It is a characterisation test: today the two leaders apply
// different entries at index k (different blocks at height h) and this
// test says so; the PR that makes acks durable flips the final check.
func TestScheduleLostAckElectsShorterLog(t *testing.T) {
	const L, A, B, C, D = 0, 1, 2, 3, 4
	all := []int{L, A, B, C, D}
	opts := DefaultOptions()
	opts.BatchSize = 2
	et := opts.ElectionTimeout
	s := newSim(t, 5, opts)
	s.run([]event{
		// Elect L: its timeout fires (any deadline is < 2×ET), everyone
		// votes, L wins term 1 and its first heartbeat is acknowledged.
		{at: 2 * et, op: wake, nodes: []int{L}},
		{op: recv, nodes: []int{A, B, C, D}},
		{op: recv, nodes: []int{L}},
		{op: recv, nodes: []int{A, B, C, D}},
		{op: recv, nodes: []int{L}},
		// Index 1 commits everywhere: block 1 on all five chains.
		{op: add, nodes: all, txs: []uint64{1, 2}},
		{op: wake, nodes: []int{L}},
		{op: recv, nodes: []int{A, B, C, D}},
		{op: recv, nodes: []int{L}},          // acks: L commits 1, applies, pushes commit=1
		{op: recv, nodes: []int{A, B, C, D}}, // followers apply block 1
		{op: recv, nodes: []int{L}},
		// Index k=2 reaches A and B only; their acks commit it on L,
		// which applies block h=2.
		{op: add, nodes: all, txs: []uint64{3, 4}},
		{op: wake, nodes: []int{L}},
		{op: drop, nodes: []int{C, D}},
		{op: recv, nodes: []int{A, B}},
		{op: recv, nodes: []int{L}},
		// A is killed before it hears commit=2 and comes back from its
		// meta record alone; then {L, B} | {A, C, D}.
		{op: drop, nodes: []int{A, B, C, D}},
		{op: restart, nodes: []int{A}},
		{op: cut, nodes: []int{A, C, D}},
		// C times out (and everyone's sticky-voter window has passed),
		// is elected by A and D, and commits its own entry at k.
		{at: 5 * et, op: wake, nodes: []int{C}},
		{op: recv, nodes: []int{A, D}},
		{op: recv, nodes: []int{C}},
		{op: recv, nodes: []int{A, D}},
		{op: recv, nodes: []int{C}},
		{op: add, nodes: []int{A}, txs: []uint64{3, 4}}, // gossip refills A's pool
		{op: wake, nodes: []int{C}},
		{op: recv, nodes: []int{A, D}},
		{op: recv, nodes: []int{C}},
	})

	l, c := s.cores[L], s.cores[C]
	if l.role != leader || l.term != 1 || c.role != leader || c.term != 2 {
		t.Fatalf("schedule did not reach two leaders: L role=%d term=%d, C role=%d term=%d",
			l.role, l.term, c.role, c.term)
	}
	if l.applied != 2 || c.applied != 2 {
		t.Fatalf("applied: L=%d C=%d, want 2 and 2", l.applied, c.applied)
	}
	if a := s.cores[A]; a.votedFor != C || a.term != 2 {
		t.Fatalf("restarted A (term %d, voted %d) did not elect C", a.term, a.votedFor)
	}
	lb, _ := s.chains[L].GetBlock(2)
	cb, _ := s.chains[C].GetBlock(2)
	if lb == nil || cb == nil {
		t.Fatal("block 2 missing on L or C")
	}
	found := fmt.Sprintf("index 2 applied as term %d on L and term %d on C; block 2 is %s on L and %s on C",
		l.termAt(2), c.termAt(2), lb.Hash().Short(), cb.Hash().Short())
	if lb.Hash() == cb.Hash() {
		t.Fatalf("the lost-ack schedule no longer diverges (%s): if acks are now durable "+
			"(ROADMAP 1(b)), make agreement the expectation here", found)
	}
	t.Log("ROADMAP item 1 reproduced: " + found)
}

// TestApplyStopsAtFirstWrongBlock: a committed entry whose height is
// already on the chain is accounted for only if the block there is that
// entry's block. Otherwise the replica stops applying at that index,
// counts it and can say where.
func TestApplyStopsAtFirstWrongBlock(t *testing.T) {
	s := newSim(t, 1, DefaultOptions())
	c := s.cores[0]
	// Height 1 holds a block of txs {1, 2} — left by an earlier life
	// (journal reload) or delivered by a chain sync.
	onChain := []*types.Transaction{schedTx(1), schedTx(2)}
	c.log = []Entry{{Term: 1, Txs: onChain}}
	c.commit = 1
	c.apply()
	if s.chains[0].Height() != 1 || c.applied != 1 {
		t.Fatalf("setup: height=%d applied=%d", s.chains[0].Height(), c.applied)
	}
	// Replay from index 0: the same entry is skip-accounted...
	c.applied, c.appliedHeight = 0, 0
	c.apply()
	if c.applied != 1 || c.mismatchIndex != 0 {
		t.Fatalf("matching block not accounted: applied=%d mismatch=%d", c.applied, c.mismatchIndex)
	}
	// ...a different entry for that height is not.
	c.applied, c.appliedHeight = 0, 0
	c.log = []Entry{{Term: 2, Txs: []*types.Transaction{schedTx(3)}}, {Term: 2, Txs: []*types.Transaction{schedTx(4)}}}
	c.commit = 2
	c.apply()
	if c.applied != 0 || c.appliedHeight != 0 {
		t.Fatalf("applied past a wrong block: applied=%d height=%d", c.applied, c.appliedHeight)
	}
	if c.applyMismatches != 1 || c.mismatchIndex != 1 || c.mismatchHeight != 1 {
		t.Fatalf("mismatch not located: count=%d index=%d height=%d",
			c.applyMismatches, c.mismatchIndex, c.mismatchHeight)
	}
	c.apply() // and it stays stopped, counted once
	if c.applied != 0 || c.applyMismatches != 1 || s.chains[0].Height() != 1 {
		t.Fatalf("wedged replica moved: applied=%d count=%d height=%d",
			c.applied, c.applyMismatches, s.chains[0].Height())
	}
}
