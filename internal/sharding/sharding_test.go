package sharding

import (
	"testing"

	"blockbench/internal/consensus"
	"blockbench/internal/simnet"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

func TestHashPartitionerRangeAndDeterminism(t *testing.T) {
	p := NewHashPartitioner(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		k := []byte{byte(i), byte(i >> 8)}
		s := p.Shard(k)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if s != p.Shard(k) {
			t.Fatal("non-deterministic placement")
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 shards used", len(seen))
	}
}

func TestGroupsContiguousAndBalanced(t *testing.T) {
	peers := []simnet.NodeID{3, 0, 4, 1, 2} // unsorted on purpose
	groups := Groups(peers, 2)
	if len(groups) != 2 || len(groups[0]) != 3 || len(groups[1]) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0][0] != 0 || groups[1][0] != 3 {
		t.Fatalf("groups not contiguous over sorted peers: %v", groups)
	}
	for i, id := range peers {
		_ = i
		if GroupOf(groups, id) < 0 {
			t.Fatalf("node %v in no group", id)
		}
	}
	// More shards than nodes clamps to one group per node.
	if g := Groups(peers[:2], 8); len(g) != 2 {
		t.Fatalf("clamp failed: %d groups for 2 nodes", len(g))
	}
}

func TestTouchedShards(t *testing.T) {
	p := NewHashPartitioner(8)
	// Single-key contract call: exactly one shard.
	tx := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("user1"), []byte("v")}}
	if got := TouchedShards(p, tx); len(got) != 1 || got[0] != p.Shard([]byte("user1")) {
		t.Fatalf("ycsb touched %v", got)
	}
	// Two-account smallbank call: both owners, deduplicated and sorted.
	a, b := []byte("acct-a"), []byte("acct-b")
	tx = &types.Transaction{Contract: "smallbank", Method: "sendPayment",
		Args: [][]byte{a, b, types.U64Bytes(1)}}
	got := TouchedShards(p, tx)
	want := map[int]bool{p.Shard(a): true, p.Shard(b): true}
	if len(got) != len(want) {
		t.Fatalf("sendPayment touched %v, want shards of %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("touched shards not sorted: %v", got)
		}
	}
	// Same account twice collapses to one shard.
	tx.Args = [][]byte{a, a, types.U64Bytes(1)}
	if got := TouchedShards(p, tx); len(got) != 1 {
		t.Fatalf("self-payment touched %v", got)
	}
	// Keyless transactions get a stable home shard from their hash.
	tx = &types.Transaction{Contract: "donothing", Method: "noop"}
	h1 := TouchedShards(p, tx)
	h2 := TouchedShards(p, tx)
	if len(h1) != 1 || h1[0] != h2[0] {
		t.Fatalf("home shard unstable: %v vs %v", h1, h2)
	}
}

func TestContractKeys(t *testing.T) {
	k := func(n int) [][]byte {
		args := make([][]byte, n)
		for i := range args {
			args[i] = []byte{byte('a' + i)}
		}
		return args
	}
	for _, tc := range []struct {
		contract, method string
		args             [][]byte
		want             int // -1: nil
	}{
		{"ycsb", "read", k(1), 1},
		{"ycsb", "write", k(2), 1},
		{"ycsb", "read", k(0), -1},
		{"smallbank", "amalgamate", k(2), 2},
		{"smallbank", "sendPayment", k(3), 2},
		{"smallbank", "sendPayment", k(1), -1},
		{"smallbank", "writeCheck", k(2), 1},
		{"smallbank", "writeCheck", k(0), -1},
		{"no-such-contract", "m", k(2), -1},
		{"donothing", "noop", nil, -1},
	} {
		ks := ContractKeys(tc.contract, tc.method, tc.args)
		if tc.want < 0 {
			if ks != nil {
				t.Errorf("%s.%s with %d args: keys = %q, want nil", tc.contract, tc.method, len(tc.args), ks)
			}
			continue
		}
		if len(ks) != tc.want || &ks[0] != &tc.args[0] {
			t.Errorf("%s.%s with %d args: keys = %q, want args[:%d]", tc.contract, tc.method, len(tc.args), ks, tc.want)
		}
	}
}

// sentLog is a consensus.Net that records what a gateway sends.
type sentLog struct{ msgs []simnet.Message }

func (l *sentLog) Send(to simnet.NodeID, typ string, payload any) bool {
	l.msgs = append(l.msgs, simnet.Message{To: to, Type: typ, Payload: payload})
	return true
}
func (l *sentLog) Broadcast(string, any) {}

// TestFlushForwardsGroupsByShardAndKeepsFIFO: one flush turns the
// gateway's accepted single-shard transactions into one forward batch
// per destination shard — every transaction with its own shard's batch,
// in arrival order within it, sent to each other member of that group —
// and drains them from the outbound queue.
func TestFlushForwardsGroupsByShardAndKeepsFIFO(t *testing.T) {
	wire := &sentLog{}
	pool := txpool.New(0)
	opts := DefaultOptions()
	opts.Shards = 2
	e := New(consensus.Context{Self: 0, Endpoint: wire, Pool: pool,
		Peers: []simnet.NodeID{0, 1, 2, 3}}, opts)
	perShard := make([]int, 2)
	for i := uint64(0); i < 30; i++ {
		tx := &types.Transaction{Nonce: i, Contract: "donothing", Method: "nop"}
		if err := e.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		perShard[TouchedShards(e.part, tx)[0]]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("30 keyless transactions all hashed to one shard: %v", perShard)
	}
	e.flushForwards()

	// Own shard (nodes 0, 1): pooled locally and forwarded to node 1.
	// Foreign shard (nodes 2, 3): forwarded to both.
	if pool.Len() != perShard[0] {
		t.Fatalf("local pool holds %d of the %d own-shard transactions", pool.Len(), perShard[0])
	}
	sentTo := make(map[simnet.NodeID]int)
	for _, m := range wire.msgs {
		fb, ok := m.Payload.(*ForwardBatch)
		if !ok || m.Type != MsgForward {
			t.Fatalf("flush sent a %s", m.Type)
		}
		sentTo[m.To]++
		if GroupOf(e.groups, m.To) != fb.Shard || fb.Origin != 0 || len(fb.Txs) != perShard[fb.Shard] {
			t.Fatalf("batch for shard %d (%d txs, origin %d) sent to node %d", fb.Shard, len(fb.Txs), fb.Origin, m.To)
		}
		for i, tx := range fb.Txs {
			if TouchedShards(e.part, tx)[0] != fb.Shard {
				t.Fatalf("shard %d's batch holds a transaction of shard %d", fb.Shard, TouchedShards(e.part, tx)[0])
			}
			if i > 0 && tx.Nonce < fb.Txs[i-1].Nonce {
				t.Fatalf("shard %d's batch out of arrival order: %d after %d", fb.Shard, tx.Nonce, fb.Txs[i-1].Nonce)
			}
		}
	}
	if len(sentTo) != 3 || sentTo[1] != 1 || sentTo[2] != 1 || sentTo[3] != 1 {
		t.Fatalf("one batch each to nodes 1, 2, 3 expected; sent %v", sentTo)
	}
	// Flushed transactions left the outbound queue: nothing goes twice.
	wire.msgs = nil
	e.flushForwards()
	if e.outbound.Len() != 0 || len(wire.msgs) != 0 {
		t.Fatalf("second flush: %d queued, %d messages", e.outbound.Len(), len(wire.msgs))
	}
}
