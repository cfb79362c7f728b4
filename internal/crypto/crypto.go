// Package crypto provides the signature scheme used by clients and nodes:
// ECDSA over P-256 with SHA-256 digests, plus address derivation. Real
// asymmetric signing is used (not a stub) because transaction signing cost
// is one of the bottlenecks the paper identifies (Parity signs transactions
// server-side on its ingestion path).
package crypto

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"

	"blockbench/internal/types"
)

// Key is a signing keypair bound to a derived address.
type Key struct {
	priv *ecdsa.PrivateKey
	addr types.Address
}

// DeterministicKey derives a keypair from a seed. It is used to give every
// simulated node and client a stable identity across runs without storing
// key material. Not for production use.
func DeterministicKey(seed uint64) *Key {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	digest := sha256.Sum256(buf[:])
	d := new(big.Int).SetBytes(digest[:])
	curve := elliptic.P256()
	d.Mod(d, new(big.Int).Sub(curve.Params().N, big.NewInt(1)))
	d.Add(d, big.NewInt(1))
	priv := &ecdsa.PrivateKey{D: d}
	priv.Curve = curve
	priv.X, priv.Y = curve.ScalarBaseMult(d.Bytes())
	return &Key{priv: priv, addr: pubAddress(&priv.PublicKey)}
}

func pubAddress(pub *ecdsa.PublicKey) types.Address {
	raw := elliptic.Marshal(pub.Curve, pub.X, pub.Y)
	h := sha256.Sum256(raw)
	return types.BytesToAddress(h[12:])
}

// Address returns the address derived from the public key.
func (k *Key) Address() types.Address { return k.addr }

// Sign produces an ASN.1 ECDSA signature over h.
func (k *Key) Sign(h types.Hash) ([]byte, error) {
	sig, err := ecdsa.SignASN1(rand.Reader, k.priv, h[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: sign: %w", err)
	}
	return sig, nil
}

// SignTx signs tx in place with k and stamps the sender address.
func SignTx(tx *types.Transaction, k *Key) error {
	tx.From = k.addr
	sig, err := k.Sign(tx.Hash())
	if err != nil {
		return err
	}
	tx.Sig = sig
	return nil
}

// Registry maps addresses to public keys. Private deployments authenticate
// every participant up front, so nodes share a static registry rather than
// recovering keys from signatures. A verified signature is cached under its
// transaction hash and must match on a hit (Hash excludes it): a node that
// checked a transaction at pool admission does not pay again at commit, and
// per-node registries make each node pay exactly once, as real systems do.
type Registry struct {
	keys           map[types.Address]*ecdsa.PublicKey
	mu             sync.Mutex
	cur, prev      map[types.Hash][]byte // two generations: cur becomes prev at limit entries
	limit          int
	verifies, hits uint64 // ECDSA runs; checks the cache answered
}

// fanoutMin is the number of misses per VerifyTxs goroutine.
const fanoutMin = 64

// NewRegistry returns an empty key registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[types.Address]*ecdsa.PublicKey), cur: make(map[types.Hash][]byte), limit: 1 << 20}
}

// Add registers the public half of k.
func (r *Registry) Add(k *Key) { r.keys[k.addr] = &k.priv.PublicKey }

// hitLocked reports, and counts, a hit: tx verified under its own signature.
func (r *Registry) hitLocked(tx *types.Transaction) bool {
	s, ok := r.cur[tx.Hash()]
	if !ok {
		s, ok = r.prev[tx.Hash()]
	}
	if ok = ok && bytes.Equal(s, tx.Sig); ok {
		r.hits++
	}
	return ok
}

// VerifyTx checks the transaction signature against the registered key of
// tx.From. Unknown senders and damaged signatures fail verification.
func (r *Registry) VerifyTx(tx *types.Transaction) bool {
	if len(tx.Sig) == 0 {
		return false
	}
	r.mu.Lock()
	hit := r.hitLocked(tx)
	r.mu.Unlock()
	if hit {
		return true
	}
	pub, known := r.keys[tx.From]
	h := tx.Hash()
	ok := known && ecdsa.VerifyASN1(pub, h[:], tx.Sig)
	r.mu.Lock()
	defer r.mu.Unlock()
	if known {
		r.verifies++
	}
	if ok { // only successes: a forgery checked first must not bar the genuine tx
		if len(r.cur) >= r.limit {
			r.prev, r.cur = r.cur, make(map[types.Hash][]byte)
		}
		r.cur[h] = tx.Sig // kept, not copied: a checked Sig must not be written into
	}
	return ok
}

// VerifyTxs checks a block's transactions and returns the index of the
// first that fails, or -1. It looks them all up under one lock and passes
// the misses to VerifyTx, striped over GOMAXPROCS goroutines at most.
func (r *Registry) VerifyTxs(txs []*types.Transaction) int {
	var misses []int
	r.mu.Lock()
	for i, tx := range txs {
		if !r.hitLocked(tx) {
			misses = append(misses, i)
		}
	}
	r.mu.Unlock()
	if len(misses) == 0 {
		return -1
	}
	return r.verifyMisses(txs, misses)
}

func (r *Registry) verifyMisses(txs []*types.Transaction, misses []int) int {
	ok := make([]bool, len(misses))
	workers := min(runtime.GOMAXPROCS(0), len(misses)/fanoutMin+1)
	stripe := func(w int) {
		for j := w; j < len(misses); j += workers {
			ok[j] = r.VerifyTx(txs[misses[j]])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() { defer wg.Done(); stripe(w) }()
	}
	stripe(0)
	wg.Wait()
	if j := slices.Index(ok, false); j >= 0 {
		return misses[j]
	}
	return -1
}

// Counters implements metrics.CounterProvider.
func (r *Registry) Counters() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return map[string]uint64{"crypto.verifies": r.verifies, "crypto.verify_hits": r.hits}
}
