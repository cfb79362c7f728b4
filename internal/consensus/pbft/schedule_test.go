package pbft

import (
	"slices"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// The raft package's schedule harness, cut down to what one view change
// needs: cores driven directly (no Engine, runner, goroutine or sleep),
// time a value the schedule advances, the wire a queue it drains.

type op int

const (
	wake op = iota // the node's timer fires
	recv           // the nodes receive what is in flight to them, in send order
	drop           // what is in flight to the nodes is lost
)

type event struct {
	at    time.Duration // clock moves to t0+at (never back; 0 keeps it)
	op    op
	nodes []int
}

type sim struct {
	t0, now time.Time
	peers   []simnet.NodeID
	cores   []*core
	chains  []*ledger.Chain
	flight  []simnet.Message
}

// wire is one node's consensus.Net: sends join the sim's flight queue.
type wire struct {
	s    *sim
	self simnet.NodeID
}

func (w wire) Send(to simnet.NodeID, typ string, payload any) bool {
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

func (s *sim) run(schedule []event) {
	for _, ev := range schedule {
		if at := s.t0.Add(ev.at); at.After(s.now) {
			s.now = at
		}
		if ev.op == wake {
			for _, i := range ev.nodes {
				s.cores[i].step(s.now, consensus.Wake)
			}
			continue
		}
		// What was in flight to ev.nodes when the row began is received
		// or lost, in send order; what those steps send waits for a
		// later row.
		batch := s.flight
		s.flight = nil
		var rest []simnet.Message
		for _, m := range batch {
			switch {
			case !slices.Contains(ev.nodes, int(m.To)):
				rest = append(rest, m)
			case ev.op == recv:
				s.cores[m.To].step(s.now, m)
			}
		}
		s.flight = append(rest, s.flight...)
	}
}

// TestScheduleViewChangeCarriesPreparedBatch: the primary of view 0 gets
// a batch prepared on every replica, then falls silent with the commits
// lost. The other three time out, vote, enter view 1, and the new
// primary re-proposes the prepared batch from the view-change
// certificates: block 1 is that batch, built in view 1, identical on all
// three — and exactly one view change was counted.
func TestScheduleViewChangeCarriesPreparedBatch(t *testing.T) {
	opts := DefaultOptions()
	s := &sim{t0: time.Unix(1_000_000, 0)}
	s.now = s.t0
	batch := []*types.Transaction{{Nonce: 1, Contract: "donothing", Method: "nop"}, {Nonce: 2, Contract: "donothing", Method: "nop"}}
	for i := 0; i < 4; i++ {
		s.peers = append(s.peers, simnet.NodeID(i))
	}
	for i := 0; i < 4; i++ {
		pool := txpool.New(0)
		for _, tx := range batch {
			pool.Add(tx)
		}
		s.chains = append(s.chains, testChain(t))
		s.cores = append(s.cores, newCore(consensus.Context{
			Self: simnet.NodeID(i), Endpoint: wire{s, simnet.NodeID(i)},
			Chain: s.chains[i], Pool: pool, Peers: s.peers,
		}, opts, s.now))
	}
	others := []int{1, 2, 3}
	s.run([]event{
		// View 0: primary 0 proposes on its first tick; everyone prepares
		// (pre-prepare + 3 prepares ≥ quorum 3) and broadcasts a commit.
		{at: opts.BatchTimeout, op: wake, nodes: []int{0}},
		{op: recv, nodes: others}, // pre-prepare → prepares
		{op: recv, nodes: []int{0, 1, 2, 3}},
		// The commits are lost and node 0 is never heard from again.
		{op: drop, nodes: []int{0, 1, 2, 3}},
		// A view timeout later the other three vote for view 1...
		{at: opts.BatchTimeout + opts.ViewTimeout, op: wake, nodes: others},
		{op: drop, nodes: []int{0}},
		// ...collect a quorum, enter it, and new primary 1 re-proposes.
		{op: recv, nodes: others}, // view-change votes (and 1's pre-prepare)
		{op: drop, nodes: []int{0}},
		{op: recv, nodes: others}, // pre-prepare / prepares
		{op: drop, nodes: []int{0}},
		{op: recv, nodes: others}, // prepares / commits
		{op: drop, nodes: []int{0}},
		{op: recv, nodes: others}, // commits
	})

	ref, ok := s.chains[1].GetBlock(1)
	if !ok {
		t.Fatal("new primary never executed block 1")
	}
	if ref.Header.View != 1 || len(ref.Txs) != len(batch) || ref.Txs[0] != batch[0] || ref.Txs[1] != batch[1] {
		t.Fatalf("block 1 is not the carried batch in view 1: view=%d txs=%d", ref.Header.View, len(ref.Txs))
	}
	for _, i := range others {
		c := s.cores[i]
		if c.view != 1 || !c.active || c.viewChanges != 1 {
			t.Fatalf("node %d: view=%d active=%v viewChanges=%d, want 1 true 1", i, c.view, c.active, c.viewChanges)
		}
		if b, ok := s.chains[i].GetBlock(1); !ok || b.Hash() != ref.Hash() {
			t.Fatalf("node %d disagrees on block 1", i)
		}
	}
	if h := s.chains[0].Height(); h != 0 {
		t.Fatalf("silent old primary executed to height %d without a commit quorum", h)
	}
}
