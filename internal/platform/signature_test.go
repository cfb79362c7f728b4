package platform

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"blockbench/internal/crypto"
	"blockbench/internal/node"
	"blockbench/internal/types"
)

// TestBadSignatureNeverReachesABlock sends one transaction with a
// tampered signature to every node, then eight good ones. No pool admits
// the bad one, so it never reaches a block and the good ones commit.
// Before pools verified, a Raft leader proposed it, every replica's
// Append refused the block and applyNext retried that entry for ever;
// PBFT stalled the same way.
func TestBadSignatureNeverReachesABlock(t *testing.T) {
	for _, kind := range []Kind{Quorum, Hyperledger} {
		t.Run(string(kind), func(t *testing.T) {
			keys := clientKeys(1)
			c, err := New(fastConfig(kind, 4, keys))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Stop(); c.Close() })
			c.Start()

			bad := &types.Transaction{Nonce: 1 << 32, Contract: "ycsb", Method: "write",
				Args: [][]byte{[]byte("bad"), []byte("bad")}, GasLimit: 100_000}
			if err := crypto.SignTx(bad, keys[0]); err != nil {
				t.Fatal(err)
			}
			bad.Sig[4] ^= 0xff
			for i := 0; i < c.Size(); i++ {
				if _, err := c.Node(i).SendTransaction(bad); !errors.Is(err, node.ErrRejected) {
					t.Errorf("node %d: tampered signature submitted with error %v, want %v", i, err, node.ErrRejected)
				}
			}
			ids := make([]types.Hash, 8)
			for i := range ids {
				ids[i] = submitYCSB(t, c, keys[0], true, i)
			}
			waitCommitted(t, c, ids, 30*time.Second)
			for i := 0; i < c.Size(); i++ {
				if _, ok := c.Chain(i).Receipt(bad.Hash()); ok {
					t.Errorf("node %d: the tampered transaction is in a block", i)
				}
			}
		})
	}
}

// TestEachNodeVerifiesOnce makes "each node pays exactly once" a checked
// claim: every node runs one ECDSA verification per transaction, for
// preloaded blocks (all misses at commit, fanned out) and for live
// transactions alike, whichever way a transaction reached it (the client
// RPC, gossip, or a block that overtook the gossip). Live commits are
// mostly cache hits; how many depends on that race, so only some are
// required.
func TestEachNodeVerifiesOnce(t *testing.T) {
	const perBatch, batches, live = 100, 2, 40
	for _, kind := range []Kind{Quorum, Hyperledger} {
		t.Run(string(kind), func(t *testing.T) {
			keys := clientKeys(4)
			c, err := New(fastConfig(kind, 4, keys))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Stop(); c.Close() })
			expect := func(when string, verifies uint64, hits bool) {
				t.Helper()
				for i := 0; i < c.Size(); i++ {
					got := registryOf(c, i).Counters()
					if got["crypto.verifies"] != verifies || (got["crypto.verify_hits"] > 0) != hits {
						t.Errorf("%s: node %d: %v, want %d verifies and hits %v", when, i, got, verifies, hits)
					}
				}
			}

			var pre [][]*types.Transaction
			for b := 0; b < batches; b++ {
				txs := make([]*types.Transaction, perBatch)
				for i := range txs {
					n := b*perBatch + i
					txs[i] = &types.Transaction{Nonce: 1<<40 + uint64(n), Contract: "ycsb", Method: "write",
						Args: [][]byte{[]byte(fmt.Sprintf("pre-%d", n)), []byte("v")}, GasLimit: 100_000}
					if err := crypto.SignTx(txs[i], keys[n%len(keys)]); err != nil {
						t.Fatal(err)
					}
				}
				pre = append(pre, txs)
			}
			if err := c.Preload(pre); err != nil {
				t.Fatal(err)
			}
			expect("preload", perBatch*batches, false)

			c.Start()
			ids := make([]types.Hash, live)
			for i := range ids {
				ids[i] = submitYCSB(t, c, keys[i%len(keys)], true, i)
			}
			waitCommittedEverywhere(t, c, ids, 30*time.Second)
			c.Stop()
			expect("live", perBatch*batches+live, true)
		})
	}
}

// registryOf returns node i's signature registry.
func registryOf(c *Cluster, i int) *crypto.Registry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.providers[i] {
		if reg, ok := p.(*crypto.Registry); ok {
			return reg
		}
	}
	panic(fmt.Sprintf("node %d has no registry among its counter providers", i))
}

// waitCommittedEverywhere polls until every node's chain holds a receipt
// for each id.
func waitCommittedEverywhere(t *testing.T, c *Cluster, ids []types.Hash, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for i := 0; i < c.Size(); i++ {
		for _, id := range ids {
			for {
				if _, ok := c.Chain(i).Receipt(id); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d: %s never committed (height %d)", i, id, c.Chain(i).Height())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}
