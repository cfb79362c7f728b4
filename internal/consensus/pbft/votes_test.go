package pbft

import (
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/schedtest"
	"blockbench/internal/simnet"
)

// TestVotesCountOncePerPeer pins the vote set's counting: a replica's
// repeated prepare or commit counts once, and a vote from an ID outside
// the peer set counts not at all.
func TestVotesCountOncePerPeer(t *testing.T) {
	e := New(consensus.Context{Self: 0, Peers: []simnet.NodeID{0, 1, 2, 3},
		Chain: schedtest.Chain(t, nil, "donothing")}, DefaultOptions())
	e.Lock()
	defer e.Unlock()
	now := time.Now()
	v := &Vote{View: 0, Seq: 1}
	for _, commit := range []bool{false, true} {
		e.onVote(now, 9, v, commit) // not a peer
		e.onVote(now, 1, v, commit)
		e.onVote(now, 1, v, commit) // repeated
		e.onVote(now, 2, v, commit)
	}
	inst := e.instances[1]
	if inst == nil {
		t.Fatal("no instance for seq 1")
	}
	if inst.prepares != 2 || inst.commits != 2 {
		t.Fatalf("prepares, commits = %d, %d; want 2, 2", inst.prepares, inst.commits)
	}
}
