package platform

import (
	"testing"
	"time"

	"blockbench/internal/types"
)

// TestQuorumLeaseCountersFlow checks the read-lease counters reach the
// cluster's generic counter aggregation: polling every node's read path
// classifies leader reads as lease reads and follower reads as
// redirects.
func TestQuorumLeaseCountersFlow(t *testing.T) {
	keys := clientKeys(2)
	c, err := New(fastConfig(Quorum, 3, keys))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(); c.Close() })
	c.Start()

	ids := []types.Hash{submitYCSB(t, c, keys[0], true, 0)}
	waitCommitted(t, c, ids, 30*time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < c.Size(); i++ {
			if _, err := c.Node(i).BlocksFrom(0); err != nil {
				t.Fatal(err)
			}
		}
		got := c.Counters()
		if _, ok := got["raft.lease_reads"]; !ok {
			t.Fatal("raft.lease_reads missing from cluster counters")
		}
		if _, ok := got["raft.read_redirects"]; !ok {
			t.Fatal("raft.read_redirects missing from cluster counters")
		}
		if got["raft.lease_reads"] > 0 && got["raft.read_redirects"] > 0 {
			return // leader served under lease, followers redirected
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease counters never both moved: %v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecWorkersCountersFlow boots a quorum cluster with -popt
// workers=4, commits a transaction, and checks the exec.parallel.*
// counter family reaches the cluster's generic counter aggregation with
// the configured pool size visible (summed across nodes).
func TestExecWorkersCountersFlow(t *testing.T) {
	keys := clientKeys(1)
	cfg := fastConfig(Quorum, 3, keys)
	cfg.Options["workers"] = "4"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(); c.Close() })
	c.Start()

	ids := []types.Hash{submitYCSB(t, c, keys[0], true, 0)}
	waitCommitted(t, c, ids, 30*time.Second)

	got := c.Counters()
	for _, k := range []string{"exec.parallel.txs", "exec.parallel.conflicts",
		"exec.parallel.reexecs", "exec.parallel.workers"} {
		if _, ok := got[k]; !ok {
			t.Fatalf("%s missing from cluster counters: %v", k, got)
		}
	}
	if got["exec.parallel.workers"] != uint64(4*c.Size()) {
		t.Fatalf("exec.parallel.workers = %d, want 4 × %d nodes", got["exec.parallel.workers"], c.Size())
	}
	if got["exec.parallel.txs"] == 0 {
		t.Fatal("committed transaction never went through the parallel executor")
	}
}
