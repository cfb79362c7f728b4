package merkle

import (
	"fmt"
	"testing"
	"testing/quick"

	"blockbench/internal/types"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestEmptyRootIsZero(t *testing.T) {
	if !Root(nil).IsZero() {
		t.Fatal("empty root should be zero")
	}
}

func TestRootDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 64} {
		l := leaves(n)
		if Root(l) != Root(l) {
			t.Fatalf("n=%d: root unstable", n)
		}
	}
}

func TestRootSensitiveToContent(t *testing.T) {
	l := leaves(8)
	r1 := Root(l)
	l[3] = []byte("tampered")
	if Root(l) == r1 {
		t.Fatal("root ignored leaf change")
	}
}

func TestRootSensitiveToOrder(t *testing.T) {
	l := leaves(4)
	r1 := Root(l)
	l[0], l[1] = l[1], l[0]
	if Root(l) == r1 {
		t.Fatal("root ignored order change")
	}
}

func TestLeafInteriorDomainSeparation(t *testing.T) {
	// A single leaf equal to an interior-node encoding must not produce
	// the same root as the two-leaf tree it encodes.
	a, b := hashLeaf([]byte("a")), hashLeaf([]byte("b"))
	fake := make([]byte, 1+2*types.HashSize)
	fake[0] = nodePrefix
	copy(fake[1:], a[:])
	copy(fake[1+types.HashSize:], b[:])
	if Root([][]byte{fake[1:]}) == Root([][]byte{[]byte("a"), []byte("b")}) {
		t.Fatal("second preimage across levels")
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
	f := func(data [][]byte, extra []byte) bool {
		if len(data) == 0 {
			return true
		}
		return Root(data) != Root(append(data, extra))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
