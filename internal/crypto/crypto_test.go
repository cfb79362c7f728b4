package crypto

import (
	"bytes"
	"crypto/ecdsa"
	"slices"
	"testing"

	"blockbench/internal/types"
)

// verify checks sig over h against k's public key.
func verify(k *Key, h types.Hash, sig []byte) bool {
	return ecdsa.VerifyASN1(&k.priv.PublicKey, h[:], sig)
}

func TestSignAndVerify(t *testing.T) {
	k := DeterministicKey(3)
	h := types.HashData([]byte("message"))
	sig, err := k.Sign(h)
	if err != nil {
		t.Fatal(err)
	}
	if !verify(k, h, sig) {
		t.Fatal("valid signature rejected")
	}
	h2 := types.HashData([]byte("other"))
	if verify(k, h2, sig) {
		t.Fatal("signature valid for wrong message")
	}
}

func TestDeterministicKeyStable(t *testing.T) {
	a, b := DeterministicKey(7), DeterministicKey(7)
	if a.Address() != b.Address() {
		t.Fatal("same seed produced different addresses")
	}
	c := DeterministicKey(8)
	if c.Address() == a.Address() {
		t.Fatal("different seeds collided")
	}
	// Cross-key verification must fail.
	h := types.HashData([]byte("m"))
	sig, _ := a.Sign(h)
	if verify(c, h, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestRegistryVerifyTx(t *testing.T) {
	k := DeterministicKey(1)
	reg := NewRegistry()
	reg.Add(k)

	tx := &types.Transaction{Nonce: 1, Contract: "c", Method: "m", GasLimit: 1000}
	if reg.VerifyTx(tx) {
		t.Fatal("unsigned tx verified")
	}
	if err := SignTx(tx, k); err != nil {
		t.Fatal(err)
	}
	if tx.From != k.Address() {
		t.Fatal("SignTx did not stamp sender")
	}
	if !reg.VerifyTx(tx) {
		t.Fatal("signed tx rejected")
	}

	// A signature damaged in flight fails verification, cached or not.
	// The damage is to a copy of Sig: the registry keeps a checked Sig
	// by reference, and Hash() is cached at signing, so editing a signed
	// field in place would go unseen.
	sig := tx.Sig
	tx.Sig = slices.Clone(sig)
	tx.Sig[len(tx.Sig)/2] ^= 0x01
	if reg.VerifyTx(tx) {
		t.Fatal("tx with a damaged signature verified")
	}
	tx.Sig = sig

	// Unknown sender.
	other := DeterministicKey(2)
	tx2 := &types.Transaction{Nonce: 2, GasLimit: 1}
	if err := SignTx(tx2, other); err != nil {
		t.Fatal(err)
	}
	if reg.VerifyTx(tx2) {
		t.Fatal("unknown sender verified")
	}

	// Tampered signature.
	tx3 := &types.Transaction{Nonce: 3, GasLimit: 1}
	if err := SignTx(tx3, k); err != nil {
		t.Fatal(err)
	}
	tx3.Sig[4] ^= 0xff
	if reg.VerifyTx(tx3) {
		t.Fatal("tampered signature verified")
	}

	// The cache binds the signature, in both orders: a forged copy of a
	// verified transaction is not a hit, and a forgery checked first does
	// not bar the genuine transaction.
	genuine := &types.Transaction{Nonce: 4, GasLimit: 1}
	if err := SignTx(genuine, k); err != nil {
		t.Fatal(err)
	}
	forged := func() *types.Transaction {
		f := &types.Transaction{Nonce: 4, GasLimit: 1, From: genuine.From, Sig: bytes.Clone(genuine.Sig)}
		f.Sig[len(f.Sig)-1] ^= 0x01
		return f
	}
	if !reg.VerifyTx(genuine) {
		t.Fatal("genuine tx rejected")
	}
	if reg.VerifyTx(forged()) {
		t.Fatal("forged copy of a verified tx accepted")
	}
	fresh := NewRegistry()
	fresh.Add(k)
	if fresh.VerifyTx(forged()) {
		t.Fatal("forged tx accepted")
	}
	if !fresh.VerifyTx(genuine) {
		t.Fatal("genuine tx rejected after a forgery of it was checked")
	}
}

func signedTxs(t testing.TB, k *Key, n int) []*types.Transaction {
	t.Helper()
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{Nonce: uint64(i), GasLimit: 1}
		if err := SignTx(txs[i], k); err != nil {
			t.Fatal(err)
		}
	}
	return txs
}

// TestRegistryKeepsTwoGenerations shows the cache bound: an entry
// verified just before the swap is still a hit after it, and one two
// generations old is verified again.
func TestRegistryKeepsTwoGenerations(t *testing.T) {
	k := DeterministicKey(1)
	reg := NewRegistry()
	reg.Add(k)
	reg.limit = 4
	txs := signedTxs(t, k, 9)
	verifies := func() uint64 { return reg.Counters()["crypto.verifies"] }

	for _, tx := range txs[:5] { // the fifth swaps txs[:4] into prev
		reg.VerifyTx(tx)
	}
	if !reg.VerifyTx(txs[3]) || verifies() != 5 {
		t.Fatalf("entry verified just before the swap: %d verifies, want 5 (a hit)", verifies())
	}
	for _, tx := range txs[5:] { // the ninth swaps again: txs[:4] are gone
		reg.VerifyTx(tx)
	}
	if !reg.VerifyTx(txs[0]) || verifies() != 10 {
		t.Fatalf("entry two generations old: %d verifies, want 10 (a miss)", verifies())
	}
}

// TestVerifyTxsMatchesVerifyTx drives the block check inline and fanned
// out: it answers hits from the cache, verifies each miss once, and
// reports the first failing transaction.
func TestVerifyTxsMatchesVerifyTx(t *testing.T) {
	k := DeterministicKey(1)
	for _, n := range []int{fanoutMin - 1, 3 * fanoutMin} {
		reg := NewRegistry()
		reg.Add(k)
		txs := signedTxs(t, k, n)
		for _, tx := range txs[:n/2] {
			reg.VerifyTx(tx)
		}
		if bad := reg.VerifyTxs(txs); bad != -1 {
			t.Fatalf("n=%d: tx %d failed", n, bad)
		}
		c := reg.Counters()
		if c["crypto.verifies"] != uint64(n) || c["crypto.verify_hits"] != uint64(n/2) {
			t.Fatalf("n=%d: counters %v, want %d verifies and %d hits", n, c, n, n/2)
		}
		if bad := reg.VerifyTxs(txs); bad != -1 || reg.Counters()["crypto.verifies"] != uint64(n) {
			t.Fatalf("n=%d: a verified block verified again", n)
		}

		txs = signedTxs(t, k, n)
		txs[n-2].Sig = bytes.Clone(txs[n-2].Sig)
		txs[n-2].Sig[4] ^= 0xff
		txs[n-1].Sig = nil
		if bad := reg.VerifyTxs(txs); bad != n-2 {
			t.Fatalf("n=%d: VerifyTxs = %d, want %d (the first that fails)", n, bad, n-2)
		}
		txs[n-2] = txs[0]
		if bad := reg.VerifyTxs(txs); bad != n-1 {
			t.Fatalf("n=%d: VerifyTxs = %d, want %d (the unsigned tx)", n, bad, n-1)
		}
	}
}
