package platform

import (
	"fmt"
	"testing"
	"time"

	"blockbench/internal/crypto"
	"blockbench/internal/schedule"
	"blockbench/internal/types"
)

func clientKeys(n int) []*crypto.Key {
	keys := make([]*crypto.Key, n)
	for i := range keys {
		keys[i] = crypto.DeterministicKey(uint64(5000 + i))
	}
	return keys
}

// fastConfig shrinks timings so integration tests stay quick. The knobs
// are per preset, so the Options are too; the map is fresh, so callers
// add keys to it freely.
func fastConfig(kind Kind, nodes int, keys []*crypto.Key) Config {
	var opts map[string]string
	switch kind {
	case Ethereum:
		opts = map[string]string{"block": "40ms"}
	case Parity:
		opts = map[string]string{"step": "20ms", "ingest": "1ms"}
	case Hyperledger:
		opts = map[string]string{"batchtimeout": "5ms", "viewtimeout": "200ms"}
	default: // the Raft-backed presets
		opts = map[string]string{"batchtimeout": "5ms", "election": "80ms", "heartbeat": "5ms"}
	}
	return Config{
		Kind:           kind,
		Nodes:          nodes,
		Contracts:      []string{"ycsb", "donothing"},
		ClientKeys:     keys,
		GenesisBalance: 1_000_000,
		RPCLatency:     time.Microsecond,
		Options:        opts,
	}
}

func submitYCSB(t *testing.T, c *Cluster, key *crypto.Key, sign bool, i int) types.Hash {
	t.Helper()
	tx := &types.Transaction{
		Nonce:    uint64(i),
		From:     key.Address(),
		Contract: "ycsb",
		Method:   "write",
		Args:     [][]byte{[]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("val-%d", i))},
		GasLimit: 100_000,
	}
	if sign {
		if err := crypto.SignTx(tx, key); err != nil {
			t.Fatal(err)
		}
	}
	server := c.Node(i % c.Size())
	id, err := server.SendTransaction(tx)
	if err != nil {
		t.Fatalf("send tx %d: %v", i, err)
	}
	return id
}

// waitCommitted polls until all tx ids are committed on node 0 or times
// out.
func waitCommitted(t *testing.T, c *Cluster, ids []types.Hash, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	remaining := make(map[types.Hash]bool, len(ids))
	for _, id := range ids {
		remaining[id] = true
	}
	var h uint64
	for time.Now().Before(deadline) {
		blocks, err := c.Node(0).BlocksFrom(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			for _, id := range b.TxIDs {
				delete(remaining, id)
			}
			if b.Number > h {
				h = b.Number
			}
		}
		if len(remaining) == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d of %d transactions never committed (pool=%d, height=%d)",
		len(remaining), len(ids), c.Node(0).Pool().Len(), c.Chain(0).Height())
}

func runCommitTest(t *testing.T, kind Kind, nodes, txs int) *Cluster {
	t.Helper()
	keys := clientKeys(4)
	c, err := New(fastConfig(kind, nodes, keys))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(); c.Close() })
	c.Start()

	ids := make([]types.Hash, txs)
	for i := 0; i < txs; i++ {
		// Parity signs server-side; other platforms need client signing.
		ids[i] = submitYCSB(t, c, keys[i%len(keys)], kind != Parity, i)
	}
	waitCommitted(t, c, ids, 30*time.Second)
	return c
}

func TestEthereumClusterCommits(t *testing.T) {
	c := runCommitTest(t, Ethereum, 4, 40)
	// All nodes converge on the same state for a sample key.
	time.Sleep(300 * time.Millisecond)
	want, err := c.Node(0).Query("ycsb", "read", [][]byte{[]byte("key-3")})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if string(want) != "val-3" {
		t.Fatalf("state = %q", want)
	}
}

func TestParityClusterCommits(t *testing.T) {
	runCommitTest(t, Parity, 4, 30)
}

func TestHyperledgerClusterCommits(t *testing.T) {
	c := runCommitTest(t, Hyperledger, 4, 60)
	// PBFT never forks: every node's known blocks equal its height. The
	// two are separate reads, so the cluster is stopped first — on a live
	// one a block landing between them made this fail 1 run in 200.
	c.Stop()
	for i := 0; i < c.Size(); i++ {
		if c.Chain(i).KnownBlocks() != c.Chain(i).Height() {
			t.Fatalf("node %d: forked PBFT chain", i)
		}
	}
}

func TestHyperledgerViewChangeOnPrimaryCrash(t *testing.T) {
	keys := clientKeys(2)
	c, err := New(fastConfig(Hyperledger, 4, keys))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Stop(); c.Close() }()
	c.Start()

	// Commit something under the initial primary (node 0).
	var ids []types.Hash
	for i := 0; i < 5; i++ {
		ids = append(ids, submitYCSB(t, c, keys[0], true, i))
	}
	waitCommitted(t, c, ids, 20*time.Second)

	// Kill the primary; the remaining 3 of 4 still have a quorum and
	// must elect a new primary and keep committing.
	c.Crash(0)
	ids = nil
	for i := 100; i < 105; i++ {
		tx := &types.Transaction{
			Nonce: uint64(i), Contract: "ycsb", Method: "write",
			Args:     [][]byte{[]byte(fmt.Sprintf("k%d", i)), []byte("v")},
			GasLimit: 100_000,
		}
		if err := crypto.SignTx(tx, keys[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Node(1).SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, tx.Hash())
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if r, ok := c.Chain(1).Receipt(ids[len(ids)-1]); ok && r.OK {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("no progress after primary crash (height=%d)", c.Chain(1).Height())
}

func TestHyperledgerStallsWithoutQuorum(t *testing.T) {
	keys := clientKeys(1)
	c, err := New(fastConfig(Hyperledger, 4, keys))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Stop(); c.Close() }()
	c.Start()
	// Crash 2 of 4 (f=1): no quorum, no progress — the Fig 9 stall.
	c.Crash(2)
	c.Crash(3)
	submitYCSB(t, c, keys[0], true, 1)
	time.Sleep(800 * time.Millisecond)
	if h := c.Chain(0).Height(); h != 0 {
		t.Fatalf("chain advanced to %d without quorum", h)
	}
}

func TestEthereumPartitionForksAndHeals(t *testing.T) {
	keys := clientKeys(2)
	cfg := fastConfig(Ethereum, 4, keys)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Stop(); c.Close() }()
	c.Start()

	// The partition attack, keyed off observed chain growth instead of
	// fixed sleeps: PoW mining speed varies with the host, so a timed
	// window can close before a slow half has mined anything (the old
	// flake — both fork tests saw zero stale blocks on slow machines).
	// Partition once a common prefix reaches every node; heal once both
	// halves have demonstrably mined two blocks past the fork point,
	// which guarantees at least two blocks end up stale whichever side
	// wins.
	deadline := time.Now().Add(60 * time.Second)
	fired := 0
	// waitHeights polls until every listed node reaches height target,
	// then applies act.
	waitHeights := func(target uint64, act schedule.Action, nodes ...int) {
		for _, i := range nodes {
			for c.Chain(i).Height() < target {
				if time.Now().After(deadline) {
					for i := 0; i < c.Size(); i++ {
						t.Logf("node %d height=%d", i, c.Chain(i).Height())
					}
					t.Fatalf("event timeline timed out after %d of 2 events", fired)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		act.Do(c)
		fired++
	}
	waitHeights(1, schedule.Partition(2), 0, 1, 2, 3)
	var base uint64
	for i := 0; i < c.Size(); i++ {
		base = max(base, c.Chain(i).Height())
	}
	waitHeights(base+2, schedule.Heal(), 0, 2)

	// Healing does not proactively re-gossip: the minority adopts the
	// winning branch when the next mined block arrives with an unknown
	// parent and triggers catch-up sync. Poll until all nodes agree on a
	// block buried past the heal-time tip (mining keeps the very tip
	// racing).
	forkBase := uint64(0)
	for i := 0; i < c.Size(); i++ {
		if h := c.Chain(i).Height(); h > forkBase {
			forkBase = h
		}
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		minH := c.Chain(0).Height()
		for i := 1; i < c.Size(); i++ {
			if h := c.Chain(i).Height(); h < minH {
				minH = h
			}
		}
		converged := minH > forkBase+3
		if converged {
			ref, _ := c.Chain(0).GetBlock(minH - 3)
			for i := 1; i < c.Size(); i++ {
				b, ok := c.Chain(i).GetBlock(minH - 3)
				if !ok || b.Hash() != ref.Hash() {
					converged = false
					break
				}
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never converged after heal (min height %d)", minH)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The losing branch's blocks stay known on the nodes that mined them:
	// the union across nodes must exceed the main chain.
	total, main := c.ForkStats()
	if total <= main {
		t.Fatalf("expected stale blocks after partition: total=%d main=%d", total, main)
	}
}

func TestParityConstantRateAndRateLimit(t *testing.T) {
	keys := clientKeys(1)
	cfg := fastConfig(Parity, 4, keys)
	cfg.Options["ingest"] = "5ms" // ~200 tx/s cap
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Stop(); c.Close() }()
	c.Start()

	// Flood one server beyond its ingestion rate: ErrBusy appears once
	// the queue fills, showing the server-side cap.
	busy := 0
	for i := 0; i < 2000; i++ {
		tx := &types.Transaction{Nonce: uint64(i), From: keys[0].Address(),
			Contract: "ycsb", Method: "write",
			Args:     [][]byte{[]byte("k"), []byte("v")},
			GasLimit: 100_000}
		if _, err := c.Node(0).SendTransaction(tx); err != nil {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("parity server accepted an unbounded backlog")
	}
}

func TestPreloadSeedsAllNodes(t *testing.T) {
	keys := clientKeys(2)
	c, err := New(fastConfig(Ethereum, 3, keys))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Stop(); c.Close() }()
	// Preload before starting consensus.
	var batches [][]*types.Transaction
	for i := 0; i < 10; i++ {
		tx := &types.Transaction{Nonce: uint64(i), To: keys[1].Address(),
			Value: 10, GasLimit: 100_000}
		if err := crypto.SignTx(tx, keys[0]); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, []*types.Transaction{tx})
	}
	if err := c.Preload(batches); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		if c.Chain(i).Height() != 10 {
			t.Fatalf("node %d height = %d", i, c.Chain(i).Height())
		}
	}
	// Historical balance query: after block 5, 5 transfers of 10.
	bal, err := c.Node(0).BalanceAt(keys[1].Address(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if bal != 1_000_000+50 {
		t.Fatalf("balance at block 5 = %d", bal)
	}
}
