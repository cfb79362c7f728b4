package pbft

import (
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/schedtest"
	"blockbench/internal/simnet"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

func engineOf(n int, self int) *Engine {
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	return New(consensus.Context{Self: simnet.NodeID(self), Peers: peers},
		DefaultOptions())
}

func TestQuorumMath(t *testing.T) {
	// f = (n-1)/3, quorum = 2f+1 — the paper's "fewer than N/3 failures".
	cases := map[int]int{4: 3, 7: 5, 8: 5, 10: 7, 12: 7, 13: 9, 16: 11}
	for n, want := range cases {
		e := engineOf(n, 0)
		if got := e.quorum(); got != want {
			t.Errorf("n=%d: quorum = %d, want %d", n, got, want)
		}
	}
}

func TestPrimaryRotation(t *testing.T) {
	e := engineOf(4, 0)
	for v := uint64(0); v < 8; v++ {
		if got := e.primaryOf(v); got != simnet.NodeID(v%4) {
			t.Fatalf("view %d: primary = %v", v, got)
		}
	}
}

func TestViewChangeVotesTriggerJoinAndEnter(t *testing.T) {
	// A replica that sees f+1 votes for a higher view joins it; on 2f+1
	// it enters the view. n=4 → f=1, quorum=3.
	net := simnet.New(simnet.Config{BaseLatency: time.Microsecond, InboxSize: 64})
	defer net.Close()
	ep := net.Join(0)
	e := New(consensus.Context{Self: 0, Peers: []simnet.NodeID{0, 1, 2, 3},
		Endpoint: ep, Chain: schedtest.Chain(t, nil, "donothing")}, DefaultOptions())

	e.Lock()
	e.recordViewVote(time.Now(), 1, &ViewChange{NewView: 1})
	joined := e.votedView
	e.Unlock()
	if joined != 0 {
		t.Fatal("joined view change with only one foreign vote (f+1 = 2 needed)")
	}

	e.Lock()
	e.recordViewVote(time.Now(), 2, &ViewChange{NewView: 1})
	// Two foreign votes = f+1 → we vote too (3 total = quorum) → enter.
	view, voted := e.view, e.votedView
	e.Unlock()
	if voted != 1 {
		t.Fatalf("votedView = %d, want 1", voted)
	}
	if view != 1 {
		t.Fatalf("view = %d, want 1 (entered)", view)
	}
	if e.Counters()["pbft.view_changes"] != 1 {
		t.Fatal("view change counter not bumped")
	}
}

func TestStaleViewChangeIgnored(t *testing.T) {
	e := engineOf(4, 0)
	e.Lock()
	e.view = 5
	e.onViewChange(time.Now(), 1, &ViewChange{NewView: 3})
	defer e.Unlock()
	if len(e.vcVotes[3]) != 0 {
		t.Fatal("stale view-change vote recorded")
	}
}

func TestWireSizes(t *testing.T) {
	pp := &PrePrepare{Txs: []*types.Transaction{{Method: "m"}}}
	if pp.WireSize() <= 24 {
		t.Fatal("pre-prepare size ignores txs")
	}
	v := &Vote{}
	if v.WireSize() != 24+types.HashSize {
		t.Fatal("vote size wrong")
	}
	vc := &ViewChange{Prepared: []PreparedProof{{Txs: []*types.Transaction{{}}}}}
	if vc.WireSize() <= 48 {
		t.Fatal("view-change size ignores proofs")
	}
	if n := (&ViewChange{Prepared: make([]PreparedProof, 1)}).WireSize(); n != 48+16+types.HashSize {
		t.Fatalf("view-change size %d does not count a proof's view, seq and digest", n)
	}
}

// TestPrimaryRepickAllocatesNothing: the primary picks again on every
// tick, and while everything pending is already in flight it proposes
// nothing. The pick goes into the core's scratch, so such a tick
// allocates nothing; only a batch a pre-prepare carries is copied.
func TestPrimaryRepickAllocatesNothing(t *testing.T) {
	pool := txpool.New(0)
	c := newCore(consensus.Context{Self: 0, Peers: []simnet.NodeID{0, 1, 2, 3},
		Chain: schedtest.Chain(t, nil), Pool: pool}, DefaultOptions(), time.Unix(0, 0))
	for i := 0; i < 3; i++ {
		tx := &types.Transaction{Nonce: uint64(i), Method: "m"}
		pool.Add(tx)
		c.assigned[tx.Hash()] = true
	}
	if n := testing.AllocsPerRun(100, func() { c.maybePropose(time.Unix(1, 0)) }); n != 0 {
		t.Errorf("a tick with every pending transaction in flight: %v allocations, want 0", n)
	}
	if len(c.instances) != 0 {
		t.Fatal("the primary proposed transactions already in flight")
	}
}
