package merkle

import (
	"testing"
	"testing/quick"

	"blockbench/internal/types"
)

func txs(n int) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		out[i] = &types.Transaction{Nonce: uint64(i), Method: "m"}
	}
	return out
}

// referenceRoot is the tree as it was built before TxRoot reduced levels
// in place, verbatim: a buffer per leaf and a fresh slice per level. It
// shares no code with TxRoot but the two prefix constants.
func referenceRoot(leaves [][]byte) types.Hash {
	if len(leaves) == 0 {
		return types.ZeroHash
	}
	level := make([]types.Hash, len(leaves))
	for i, l := range leaves {
		buf := make([]byte, 1+len(l))
		buf[0] = leafPrefix
		copy(buf[1:], l)
		level[i] = types.HashData(buf)
	}
	for len(level) > 1 {
		next := make([]types.Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				buf := append([]byte{nodePrefix}, level[i][:]...)
				next = append(next, types.HashData(append(buf, level[i+1][:]...)))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

func TestEmptyRootIsZero(t *testing.T) {
	if !TxRoot(nil).IsZero() || !TxRoot([]*types.Transaction{}).IsZero() {
		t.Fatal("empty root should be zero")
	}
}

// TestRootDeterministic holds TxRoot to the reference tree at every
// width through the stack/heap boundary and two levels past it.
func TestRootDeterministic(t *testing.T) {
	for n := 0; n <= 2*stackLeaves+3; n++ {
		l := txs(n)
		leaves := make([][]byte, n)
		for i, tx := range l {
			h := tx.Hash()
			leaves[i] = h[:]
		}
		got := TxRoot(l)
		if got != TxRoot(l) {
			t.Fatalf("n=%d: root unstable", n)
		}
		if want := referenceRoot(leaves); got != want {
			t.Fatalf("n=%d: root %s, reference %s", n, got, want)
		}
	}
}

func TestRootSensitiveToContent(t *testing.T) {
	l := txs(8)
	r1 := TxRoot(l)
	l[3] = &types.Transaction{Nonce: 3, Method: "tampered"}
	if TxRoot(l) == r1 {
		t.Fatal("root ignored leaf change")
	}
}

func TestRootSensitiveToOrder(t *testing.T) {
	l := txs(4)
	r1 := TxRoot(l)
	l[0], l[1] = l[1], l[0]
	if TxRoot(l) == r1 {
		t.Fatal("root ignored order change")
	}
}

func TestTxRoot(t *testing.T) {
	txs := []*types.Transaction{{Nonce: 1}, {Nonce: 2}}
	r := TxRoot(txs)
	if r.IsZero() {
		t.Fatal("tx root zero")
	}
	txs2 := []*types.Transaction{{Nonce: 1}, {Nonce: 3}}
	if TxRoot(txs2) == r {
		t.Fatal("tx root insensitive to tx change")
	}
	if !TxRoot(nil).IsZero() {
		t.Fatal("empty tx root should be zero")
	}
}

func TestRootQuickProperty(t *testing.T) {
	// Appending a leaf always changes the root.
	f := func(nonces []uint64, extra uint64) bool {
		if len(nonces) == 0 {
			return true
		}
		l := make([]*types.Transaction, len(nonces), len(nonces)+1)
		for i, n := range nonces {
			l[i] = &types.Transaction{Nonce: n}
		}
		return TxRoot(l) != TxRoot(append(l, &types.Transaction{Nonce: extra}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTxRootAllocBudget: the tree is built on the stack up to
// stackLeaves transactions and in one slice above. Every node runs
// TxRoot twice per block (raft's apply and the chain's Append), so an
// allocation per leaf here is eight per transaction on four nodes.
func TestTxRootAllocBudget(t *testing.T) {
	for _, c := range []struct {
		n      int
		allocs float64
	}{{20, 0}, {stackLeaves, 0}, {100, 1}} {
		l := txs(c.n)
		TxRoot(l) // cache the transaction hashes
		if got := testing.AllocsPerRun(100, func() { TxRoot(l) }); got != c.allocs {
			t.Errorf("TxRoot(%d): %v allocations, want %v", c.n, got, c.allocs)
		}
	}
}

var sink types.Hash

func BenchmarkTxRoot(b *testing.B) {
	l := txs(20)
	TxRoot(l) // cache the transaction hashes: -benchtime 1x runs once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = TxRoot(l)
	}
}
