package node

import (
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/state"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// nullConsensus commits nothing; tests drive the chain directly.
type nullConsensus struct{}

func (nullConsensus) Start()                  {}
func (nullConsensus) Stop()                   {}
func (nullConsensus) Handle(m simnet.Message) {}

func newTestNode(t *testing.T, cfgMut func(*Config)) (*Node, *ledger.Chain, *crypto.Key) {
	t.Helper()
	key := crypto.DeterministicKey(9)
	store := kvstore.NewMem()
	eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ledger.New(ledger.Config{
		Engine: eng,
		StateFactory: func(root types.Hash) (*state.DB, error) {
			b, err := state.NewTrieBackend(store, root, 0)
			if err != nil {
				return nil, err
			}
			return state.NewDB(b), nil
		},
		SupportsForks: true,
		GenesisAlloc:  map[types.Address]uint64{key.Address(): 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{BaseLatency: time.Microsecond, InboxSize: 64})
	t.Cleanup(net.Close)
	cfg := Config{
		ID:    1,
		Key:   key,
		Net:   net,
		Chain: chain,
		Pool:  txpool.New(0),
		NewConsensus: func(consensus.Context) consensus.Engine {
			return nullConsensus{}
		},
		Peers: []simnet.NodeID{1},
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	n := New(cfg)
	t.Cleanup(n.Stop)
	n.Start()
	return n, chain, key
}

func appendBlock(t *testing.T, chain *ledger.Chain, txs []*types.Transaction) {
	t.Helper()
	b, err := chain.Build(txs, ledger.Meta{Difficulty: 1, Time: time.Now().UnixNano()})
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Append(b); err != nil {
		t.Fatal(err)
	}
}

func TestSendTransactionAddsToPool(t *testing.T) {
	n, _, key := newTestNode(t, nil)
	tx := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
	if err := crypto.SignTx(tx, key); err != nil {
		t.Fatal(err)
	}
	id, err := n.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if id != tx.Hash() {
		t.Fatal("wrong id")
	}
	if n.Pool().Len() != 1 {
		t.Fatal("tx not pooled")
	}
}

func TestConfirmationDepthHidesFreshBlocks(t *testing.T) {
	n, chain, key := newTestNode(t, func(c *Config) { c.ConfirmationDepth = 2 })
	for i := 0; i < 3; i++ {
		tx := &types.Transaction{Nonce: uint64(i), Contract: "ycsb", Method: "write",
			Args: [][]byte{{byte(i)}, []byte("v")}, GasLimit: 100_000}
		if err := crypto.SignTx(tx, key); err != nil {
			t.Fatal(err)
		}
		appendBlock(t, chain, []*types.Transaction{tx})
	}
	// Height 3, depth 2 → only block 1 is confirmed.
	blocks, err := n.BlocksFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0].Number != 1 {
		t.Fatalf("confirmed blocks = %+v", blocks)
	}
	h, err := n.Height()
	if err != nil || h != 1 {
		t.Fatalf("confirmed height = %d, %v", h, err)
	}
}

func TestServerSideSigningKeyring(t *testing.T) {
	key := crypto.DeterministicKey(9)
	n, chain, _ := newTestNode(t, func(c *Config) {
		c.ServerSigns = true
		c.IngestCost = time.Millisecond
		c.Keyring = map[types.Address]*crypto.Key{key.Address(): key}
	})
	// Unsigned transaction from a known account: the server signs it.
	tx := &types.Transaction{From: key.Address(), Contract: "ycsb",
		Method: "write", Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
	if _, err := n.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Pool().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ingestion never admitted the tx")
		}
		time.Sleep(5 * time.Millisecond)
	}
	batch := n.Pool().Batch(1, 0)
	if len(batch[0].Sig) == 0 {
		t.Fatal("server did not sign")
	}
	// The signed tx validates in a block.
	appendBlock(t, chain, batch)
}

func TestIngestionQueueBackpressure(t *testing.T) {
	key := crypto.DeterministicKey(9)
	n, _, _ := newTestNode(t, func(c *Config) {
		c.ServerSigns = true
		c.IngestCost = 50 * time.Millisecond
		c.Keyring = map[types.Address]*crypto.Key{key.Address(): key}
	})
	busy := false
	for i := 0; i < ingestQueue+2; i++ {
		tx := &types.Transaction{Nonce: uint64(i), From: key.Address(),
			Contract: "ycsb", Method: "write",
			Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
		if _, err := n.SendTransaction(tx); err == ErrBusy {
			busy = true
			break
		}
	}
	if !busy {
		t.Fatal("slow ingestion never pushed back")
	}
}

func TestRPCOnCrashedNodeFails(t *testing.T) {
	n, _, _ := newTestNode(t, nil)
	n.cfg.Net.Crash(n.cfg.ID)
	if _, err := n.Height(); err == nil {
		t.Fatal("crashed node served RPC")
	}
	n.cfg.Net.Recover(n.cfg.ID)
	if _, err := n.Height(); err != nil {
		t.Fatal("recovered node refused RPC")
	}
}

func TestQueryAndBalanceAt(t *testing.T) {
	n, chain, key := newTestNode(t, nil)
	to := types.BytesToAddress([]byte("rcpt"))
	tx := &types.Transaction{To: to, Value: 250, GasLimit: 100_000}
	if err := crypto.SignTx(tx, key); err != nil {
		t.Fatal(err)
	}
	appendBlock(t, chain, []*types.Transaction{tx})
	appendBlock(t, chain, nil)

	bal, err := n.BalanceAt(to, 1)
	if err != nil || bal != 250 {
		t.Fatalf("balance at 1 = %d, %v", bal, err)
	}
	bal, err = n.BalanceAt(to, 0)
	if err != nil || bal != 0 {
		t.Fatalf("balance at 0 = %d, %v", bal, err)
	}
	b, err := n.Block(1)
	if err != nil || len(b.Txs) != 1 {
		t.Fatalf("block 1: %v, %v", b, err)
	}
	r, ok, err := n.Receipt(tx.Hash())
	if err != nil || !ok || !r.OK {
		t.Fatalf("receipt: %+v %v %v", r, ok, err)
	}
}

func TestGossipTxReachesPeerPool(t *testing.T) {
	// Two nodes on one network: a tx submitted to node 1 is broadcast
	// and lands in node 2's pool.
	key := crypto.DeterministicKey(9)
	store := kvstore.NewMem()
	eng, _ := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	mkChain := func() *ledger.Chain {
		c, err := ledger.New(ledger.Config{
			Engine: eng,
			StateFactory: func(root types.Hash) (*state.DB, error) {
				b, err := state.NewTrieBackend(store, root, 0)
				if err != nil {
					return nil, err
				}
				return state.NewDB(b), nil
			},
			SupportsForks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	net := simnet.New(simnet.Config{BaseLatency: time.Microsecond, InboxSize: 64})
	defer net.Close()
	mk := func(id simnet.NodeID) *Node {
		n := New(Config{
			ID: id, Key: key, Net: net, Chain: mkChain(), Pool: txpool.New(0),
			NewConsensus: func(consensus.Context) consensus.Engine { return nullConsensus{} },
			Peers:        []simnet.NodeID{1, 2},
		})
		n.Start()
		t.Cleanup(n.Stop)
		return n
	}
	n1, n2 := mk(1), mk(2)
	tx := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
	if err := crypto.SignTx(tx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n2.Pool().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gossip never reached peer")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
