package pbft

import (
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/schedtest"
	"blockbench/internal/exec"
	"blockbench/internal/simnet"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// The tests in this file are rows over internal/consensus/schedtest:
// cores driven directly, no Engine, runner, goroutine or sleep.

type event = schedtest.Row

const (
	wake   = schedtest.Wake   // the node's timer fires
	recv   = schedtest.Recv   // the nodes receive what is in flight to them, in send order
	drop   = schedtest.Drop   // what is in flight to the nodes is lost
	inject = schedtest.Inject // Msg is handed to the nodes as if the wire had carried it
)

// sim is the harness with the typed cores it steps.
type sim struct {
	*schedtest.Sim
	cores []*core
}

// newSim boots n replicas whose pools hold txs.
func newSim(t *testing.T, n int, opts Options, txs ...*types.Transaction) *sim {
	s := &sim{cores: make([]*core, n)}
	s.Sim = schedtest.New(t, n, func(ctx consensus.Context, now time.Time) consensus.Step {
		for _, tx := range txs {
			ctx.Pool.Add(tx)
		}
		s.cores[ctx.Self] = newCore(ctx, opts, now)
		return s.cores[ctx.Self].step
	}, "donothing")
	return s
}

// TestScheduleViewChangeCarriesPreparedBatch: the primary of view 0 gets
// a batch prepared on every replica, then falls silent with the commits
// lost. The other three time out, vote, enter view 1, and the new
// primary re-proposes the prepared batch from the view-change
// certificates: block 1 is that batch, built in view 1, identical on all
// three — and exactly one view change was counted.
func TestScheduleViewChangeCarriesPreparedBatch(t *testing.T) {
	opts := DefaultOptions()
	batch := []*types.Transaction{{Nonce: 1, Contract: "donothing", Method: "nop"}, {Nonce: 2, Contract: "donothing", Method: "nop"}}
	s := newSim(t, 4, opts, batch...)
	others := []int{1, 2, 3}
	s.Run([]event{
		// View 0: primary 0 proposes on its first tick; everyone prepares
		// (pre-prepare + 3 prepares ≥ quorum 3) and broadcasts a commit.
		{At: opts.BatchTimeout, Op: wake, Nodes: []int{0}},
		{Op: recv, Nodes: others}, // pre-prepare → prepares
		{Op: recv, Nodes: []int{0, 1, 2, 3}},
		// The commits are lost and node 0 is never heard from again.
		{Op: drop, Nodes: []int{0, 1, 2, 3}},
		// A view timeout later the other three vote for view 1...
		{At: opts.BatchTimeout + opts.ViewTimeout, Op: wake, Nodes: others},
		{Op: drop, Nodes: []int{0}},
		// ...collect a quorum, enter it, and new primary 1 re-proposes.
		{Op: recv, Nodes: others}, // view-change votes (and 1's pre-prepare)
		{Op: drop, Nodes: []int{0}},
		{Op: recv, Nodes: others}, // pre-prepare / prepares
		{Op: drop, Nodes: []int{0}},
		{Op: recv, Nodes: others}, // prepares / commits
		{Op: drop, Nodes: []int{0}},
		{Op: recv, Nodes: others}, // commits
	})

	ref, ok := s.Chains[1].GetBlock(1)
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
		if b, ok := s.Chains[i].GetBlock(1); !ok || b.Hash() != ref.Hash() {
			t.Fatalf("node %d disagrees on block 1", i)
		}
	}
	if h := s.Chains[0].Height(); h != 0 {
		t.Fatalf("silent old primary executed to height %d without a commit quorum", h)
	}
}

// TestScheduleViewChangeCarriesHighestViewBatch: the certificates that
// make the new primary's quorum carry different batches for seq 1, one
// prepared in view 1 and one in view 0. PBFT's new-view rule re-proposes
// the higher view's, whichever vote holds it and whatever order the votes
// came in: on fifty fresh sims, primary 2 enters view 2 and pre-prepares
// the view-1 batch every time.
func TestScheduleViewChangeCarriesHighestViewBatch(t *testing.T) {
	older := []*types.Transaction{{Nonce: 1, Contract: "donothing", Method: "nop"}}
	newer := []*types.Transaction{{Nonce: 2, Contract: "donothing", Method: "nop"}}
	vote := func(from simnet.NodeID, view uint64, txs []*types.Transaction) event {
		return event{Op: inject, Nodes: []int{2}, Msg: simnet.Message{From: from, To: 2, Type: MsgViewChange,
			Payload: &ViewChange{NewView: 2, Prepared: []PreparedProof{{View: view, Seq: 1, Txs: txs}}}}}
	}
	for run := range 50 {
		s := newSim(t, 4, DefaultOptions())
		// Two votes are f+1: node 2 joins, and its own vote makes the quorum.
		s.Run([]event{vote(1, 1, newer), vote(0, 0, older)})
		if c := s.cores[2]; c.view != 2 || !c.active || c.viewChanges != 1 {
			t.Fatalf("run %d: view=%d active=%v viewChanges=%d, want 2 true 1", run, c.view, c.active, c.viewChanges)
		}
		var sent int
		for _, m := range s.Flight {
			if pp, ok := m.Payload.(*PrePrepare); ok {
				sent++
				if pp.View != 2 || pp.Seq != 1 || len(pp.Txs) != 1 || pp.Txs[0] != newer[0] {
					t.Fatalf("run %d: primary pre-prepared view %d seq %d %v, want the view-1 batch at view 2 seq 1",
						run, pp.View, pp.Seq, pp.Txs)
				}
			}
		}
		if sent != 3 {
			t.Fatalf("run %d: %d pre-prepares sent, want one to each of the other three", run, sent)
		}
	}
}

// TestScheduleDivergentStateCaught: replica 3's engine writes one value
// the others do not while executing the batch's first transaction. All
// four execute the same committed batch, so the blocks' bodies agree, but
// each header commits to the state its replica computed: replica 3's
// block 1 hashes differently, which is what the agreement check compares.
func TestScheduleDivergentStateCaught(t *testing.T) {
	opts := DefaultOptions()
	batch := []*types.Transaction{{Nonce: 1, Contract: "donothing", Method: "nop"}, {Nonce: 2, Contract: "donothing", Method: "nop"}}
	s := newSim(t, 4, opts, batch...)
	skew(t, s.Sim, 3, batch[0])
	s.Run([]event{
		{At: opts.BatchTimeout, Op: wake, Nodes: []int{0}},
		{Op: schedtest.Flow}, // pre-prepare, prepares, commits: every replica executes
	})
	ref, ok := s.Chains[0].GetBlock(1)
	if !ok || len(ref.Txs) != len(batch) {
		t.Fatal("block 1 is not the batch on the primary")
	}
	for i := 1; i < 4; i++ {
		b, ok := s.Chains[i].GetBlock(1)
		if !ok {
			t.Fatalf("node %d never executed block 1", i)
		}
		if (b.Hash() == ref.Hash()) == (i == 3) {
			t.Fatalf("node %d: block 1 is %s, the primary's %s: want the skewed replica's alone to differ",
				i, b.Hash().Short(), ref.Hash().Short())
		}
	}
}

// skewed writes one more value than its inner engine when it executes
// transaction tx.
type skewed struct {
	exec.Engine
	tx types.Hash
}

func (e skewed) ExecuteInto(db *state.DB, tx *types.Transaction, blockNum uint64, r *types.Receipt) {
	e.Engine.ExecuteInto(db, tx, blockNum, r)
	if tx.Hash() == e.tx {
		db.SetState("skew", []byte("k"), []byte("v"))
	}
}

// skew rebuilds node i of s over an engine that writes one value the
// others do not when it executes tx.
func skew(t *testing.T, s *schedtest.Sim, i int, tx *types.Transaction) {
	eng, err := exec.NewNativeEngine("donothing")
	if err != nil {
		t.Fatal(err)
	}
	s.Rebuild(i, skewed{eng, tx.Hash()})
}

// TestSchedulesReplay: rerun on fresh sims, each table delivers and commits the same.
func TestSchedulesReplay(t *testing.T) {
	schedtest.Replay(t, TestScheduleViewChangeCarriesPreparedBatch, TestScheduleViewChangeCarriesHighestViewBatch)
}
