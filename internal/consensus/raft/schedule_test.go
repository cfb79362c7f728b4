package raft

import (
	"fmt"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/schedtest"
	"blockbench/internal/exec"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// The tests in this file are rows over internal/consensus/schedtest: five
// cores driven directly, no Engine, runner, goroutine or sleep.

type event = schedtest.Row

const (
	wake    = schedtest.Wake    // the node's timer fires (or its pool signals)
	recv    = schedtest.Recv    // the nodes receive what is in flight to them, in send order
	drop    = schedtest.Drop    // what is in flight to the nodes is lost
	restart = schedtest.Restart // the node is killed and rebuilt from its saved meta and chain
	cut     = schedtest.Cut     // partition: nodes on one side, everyone else on the other
)

// sim is the harness with the typed cores it steps.
type sim struct {
	*schedtest.Sim
	cores []*Core
}

func newSim(t *testing.T, n int, opts Options) *sim {
	s := &sim{cores: make([]*Core, n)}
	s.Sim = schedtest.New(t, n, func(ctx consensus.Context, now time.Time) consensus.Step {
		s.cores[ctx.Self] = NewCore(ctx, opts, now)
		return s.cores[ctx.Self].Step
	}, "donothing")
	return s
}

// add is the row in which txs (by nonce) reach the nodes' pools.
func (s *sim) add(nodes []int, txs ...uint64) event {
	return event{Op: schedtest.Do, Do: func() {
		for _, i := range nodes {
			for _, nonce := range txs {
				s.Pools[i].Add(schedTx(nonce))
			}
		}
	}}
}

func schedTx(nonce uint64) *types.Transaction {
	return &types.Transaction{Nonce: nonce, Contract: "donothing", Method: "nop", GasLimit: 100_000}
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
	s.Run([]event{
		// Elect L: its timeout fires (any deadline is < 2×ET), everyone
		// votes, L wins term 1 and its first heartbeat is acknowledged.
		{At: 2 * et, Op: wake, Nodes: []int{L}},
		{Op: recv, Nodes: []int{A, B, C, D}},
		{Op: recv, Nodes: []int{L}},
		{Op: recv, Nodes: []int{A, B, C, D}},
		{Op: recv, Nodes: []int{L}},
		// Index 1 commits everywhere: block 1 on all five chains.
		s.add(all, 1, 2),
		{Op: wake, Nodes: []int{L}},
		{Op: recv, Nodes: []int{A, B, C, D}},
		{Op: recv, Nodes: []int{L}},          // acks: L commits 1, applies, pushes commit=1
		{Op: recv, Nodes: []int{A, B, C, D}}, // followers apply block 1
		{Op: recv, Nodes: []int{L}},
		// Index k=2 reaches A and B only; their acks commit it on L,
		// which applies block h=2.
		s.add(all, 3, 4),
		{Op: wake, Nodes: []int{L}},
		{Op: drop, Nodes: []int{C, D}},
		{Op: recv, Nodes: []int{A, B}},
		{Op: recv, Nodes: []int{L}},
		// A is killed before it hears commit=2 and comes back from its
		// meta record alone; then {L, B} | {A, C, D}.
		{Op: drop, Nodes: []int{A, B, C, D}},
		{Op: restart, Nodes: []int{A}},
		{Op: cut, Nodes: []int{A, C, D}},
		// C times out (and everyone's sticky-voter window has passed),
		// is elected by A and D, and commits its own entry at k.
		{At: 5 * et, Op: wake, Nodes: []int{C}},
		{Op: recv, Nodes: []int{A, D}},
		{Op: recv, Nodes: []int{C}},
		{Op: recv, Nodes: []int{A, D}},
		{Op: recv, Nodes: []int{C}},
		s.add([]int{A}, 3, 4), // gossip refills A's pool
		{Op: wake, Nodes: []int{C}},
		{Op: recv, Nodes: []int{A, D}},
		{Op: recv, Nodes: []int{C}},
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
	lb, _ := s.Chains[L].GetBlock(2)
	cb, _ := s.Chains[C].GetBlock(2)
	if lb == nil || cb == nil {
		t.Fatal("block 2 missing on L or C")
	}
	found := fmt.Sprintf("index 2 applied as term %d on L and term %d on C; block 2 is %s on L and %s on C",
		l.termAt(2), c.termAt(2), lb.Hash().Short(), cb.Hash().Short())
	if lb.Hash() == cb.Hash() {
		t.Fatalf("the lost-ack schedule no longer diverges (%s): if acks are now durable "+
			"(ROADMAP 1(a)), make agreement the expectation here", found)
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
	if s.Chains[0].Height() != 1 || c.applied != 1 {
		t.Fatalf("setup: height=%d applied=%d", s.Chains[0].Height(), c.applied)
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
	if c.applied != 0 || c.applyMismatches != 1 || s.Chains[0].Height() != 1 {
		t.Fatalf("wedged replica moved: applied=%d count=%d height=%d",
			c.applied, c.applyMismatches, s.Chains[0].Height())
	}
}

// TestScheduleDivergentStateCaught: replica 2's engine writes one value
// the others do not while applying tx 1. All three apply the same
// entries, so the blocks' bodies agree, but each header commits to the
// state its replica computed: replica 2's block 1 hashes differently,
// which is what the agreement check compares.
func TestScheduleDivergentStateCaught(t *testing.T) {
	opts := DefaultOptions()
	s := newSim(t, 3, opts)
	skew(t, s.Sim, 2, schedTx(1))
	all := []int{0, 1, 2}
	s.Run([]event{
		{At: 2 * opts.ElectionTimeout, Op: wake, Nodes: []int{0}},
		{Op: schedtest.Flow}, // 0 is elected
		s.add(all, 1, 2),
		{Op: wake, Nodes: []int{0}},
		{Op: schedtest.Flow}, // index 1 commits and every replica applies it
	})
	for i, ch := range s.Chains {
		if ch.Height() != 1 {
			t.Fatalf("node %d: height %d, want block 1 applied", i, ch.Height())
		}
	}
	b0, _ := s.Chains[0].GetBlock(1)
	b1, _ := s.Chains[1].GetBlock(1)
	b2, _ := s.Chains[2].GetBlock(1)
	if b0.Hash() != b1.Hash() || b0.Hash() == b2.Hash() {
		t.Fatalf("block 1 is %s, %s and %s: want the skewed replica's alone to differ",
			b0.Hash().Short(), b1.Hash().Short(), b2.Hash().Short())
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
	schedtest.Replay(t, TestScheduleLostAckElectsShorterLog, TestApplyStopsAtFirstWrongBlock)
}
