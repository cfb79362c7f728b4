package platform

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"blockbench/internal/crypto"
	"blockbench/internal/ledger"
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

// TestQuorumAppendAllocBudget holds one node's whole share of a block —
// Chain.Append of 20 signed ycsb writes on the quorum preset: signature
// checks, the tx root, EVM execution, the trie commit, receipts, the
// head switch, the recovery journal and the analytics index — to a
// per-transaction ceiling. Four nodes pay it for every transaction; the
// standard library's ECDSA verify is about half of it.
func TestQuorumAppendAllocBudget(t *testing.T) {
	const (
		perBlk  = 20
		ceiling = 20 // allocations per transaction: 17 when written (18-19 under -race); 20 before PR 25, 27 before PR 22
	)
	perTx := appendAllocs(t, 15, perBlk) / perBlk
	t.Logf("Chain.Append: %d allocations per transaction (median of 15 blocks of %d)", perTx, perBlk)
	if perTx > ceiling {
		t.Errorf("Chain.Append: %d allocations per transaction, ceiling %d", perTx, ceiling)
	}
}

// appendAllocs appends blocks of perBlk signed ycsb writes to the one
// node of a quorum cluster and returns the median allocations of one
// Chain.Append. A twin cluster builds each block, so the measured chain
// verifies and executes it as a replica does.
func appendAllocs(t *testing.T, blocks, perBlk int) uint64 {
	t.Helper()
	keys := clientKeys(1)
	var chains [2]*ledger.Chain
	for i := range chains {
		c, err := New(fastConfig(Quorum, 1, keys))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Stop(); c.Close() })
		chains[i] = c.Chain(0)
	}
	chain, twin := chains[0], chains[1]

	allocs := make([]uint64, blocks)
	for h := range allocs {
		txs := make([]*types.Transaction, perBlk)
		for i := range txs {
			n := h*perBlk + i
			txs[i] = &types.Transaction{Nonce: uint64(n), From: keys[0].Address(), Contract: "ycsb", Method: "write",
				Args: [][]byte{[]byte(fmt.Sprintf("user%016d", n%100)), make([]byte, 100)}, GasLimit: 100_000}
			if err := crypto.SignTx(txs[i], keys[0]); err != nil {
				t.Fatal(err)
			}
		}
		b, err := twin.Build(txs, ledger.Meta{Difficulty: 1, Time: int64(h + 1)})
		if err == nil {
			err = twin.Append(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		b.Hash()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = chain.Append(b)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs[h] = after.Mallocs - before.Mallocs
	}
	slices.Sort(allocs)
	return allocs[blocks/2]
}
