package txpool

import (
	"sync"
	"testing"

	"blockbench/internal/crypto"
	"blockbench/internal/types"
)

func tx(nonce uint64, gas uint64) *types.Transaction {
	return &types.Transaction{Nonce: nonce, GasLimit: gas}
}

func TestAddAndDuplicate(t *testing.T) {
	p := New(0)
	a := tx(1, 100)
	if !p.Add(a) {
		t.Fatal("first add refused")
	}
	if p.Add(a) {
		t.Fatal("duplicate accepted")
	}
	if !p.Known(a.Hash()) {
		t.Fatal("Known = false")
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d", p.Len())
	}
}

// TestVerifierGatesAdmission: with a verifier the pool admits only what
// it verifies, and a transaction it already holds costs no second check.
func TestVerifierGatesAdmission(t *testing.T) {
	k := crypto.DeterministicKey(1)
	reg := crypto.NewRegistry()
	reg.Add(k)
	p := New(0)
	p.SetVerifier(reg)

	good, bad := tx(1, 1), tx(2, 1)
	for _, x := range []*types.Transaction{good, bad} {
		if err := crypto.SignTx(x, k); err != nil {
			t.Fatal(err)
		}
	}
	bad.Sig = append([]byte(nil), bad.Sig...)
	bad.Sig[4] ^= 0xff
	if p.Add(bad) || p.Known(bad.Hash()) {
		t.Fatal("a tampered signature was admitted")
	}
	if p.Add(tx(3, 1)) {
		t.Fatal("an unsigned transaction was admitted")
	}
	if !p.Add(good) || p.Add(good) {
		t.Fatal("want the signed transaction admitted once")
	}
	if got := reg.Counters()["crypto.verifies"]; got != 2 {
		t.Fatalf("%d ECDSA runs, want 2 (the tampered and the good transaction, once each)", got)
	}
}

func TestLimit(t *testing.T) {
	p := New(2)
	p.Add(tx(1, 1))
	p.Add(tx(2, 1))
	if p.Add(tx(3, 1)) {
		t.Fatal("pool over limit")
	}
}

func TestBatchRespectsCountAndGas(t *testing.T) {
	p := New(0)
	for i := uint64(1); i <= 10; i++ {
		p.Add(tx(i, 100))
	}
	if got := len(p.Batch(3, 0)); got != 3 {
		t.Fatalf("count batch = %d", got)
	}
	if got := len(p.Batch(0, 250)); got != 2 {
		t.Fatalf("gas batch = %d", got)
	}
	if got := len(p.Batch(0, 0)); got != 10 {
		t.Fatalf("unbounded batch = %d", got)
	}
	// Batch does not remove.
	if p.Len() != 10 {
		t.Fatal("batch consumed transactions")
	}
}

func TestMarkIncludedKeepsDedup(t *testing.T) {
	p := New(0)
	a, b := tx(1, 1), tx(2, 1)
	p.Add(a)
	p.Add(b)
	p.MarkIncluded([]*types.Transaction{a})
	if p.Len() != 1 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Add(a) {
		t.Fatal("included tx re-admitted")
	}
	batch := p.Batch(0, 0)
	if len(batch) != 1 || batch[0].Hash() != b.Hash() {
		t.Fatal("wrong survivor")
	}
}

func TestReinjectAfterReorg(t *testing.T) {
	p := New(0)
	a := tx(1, 1)
	p.Add(a)
	p.MarkIncluded([]*types.Transaction{a})
	if p.Len() != 0 {
		t.Fatal("not removed")
	}
	p.Reinject([]*types.Transaction{a})
	if p.Len() != 1 {
		t.Fatal("reinject failed")
	}
	// Reinjecting a still-pending tx must not duplicate it.
	p.Reinject([]*types.Transaction{a})
	if p.Len() != 1 {
		t.Fatalf("duplicated: len = %d", p.Len())
	}
	// It can be included again afterwards.
	p.MarkIncluded([]*types.Transaction{a})
	if p.Len() != 0 {
		t.Fatal("second include failed")
	}
}

// TestFIFOAcrossIncludes checks that arrival order survives interleaved
// inclusion: tombstoned entries must never resurface and the merge must
// keep the survivors in admission order.
func TestFIFOAcrossIncludes(t *testing.T) {
	p := New(0)
	var txs []*types.Transaction
	for i := uint64(1); i <= 64; i++ {
		x := tx(i, 1)
		txs = append(txs, x)
		p.Add(x)
	}
	// Include every other transaction.
	var include []*types.Transaction
	for i := 0; i < len(txs); i += 2 {
		include = append(include, txs[i])
	}
	p.MarkIncluded(include)
	batch := p.Batch(0, 0)
	if len(batch) != 32 {
		t.Fatalf("batch = %d, want 32", len(batch))
	}
	for i, x := range batch {
		if x.Hash() != txs[2*i+1].Hash() {
			t.Fatalf("batch[%d] out of order", i)
		}
	}
}

// TestReinjectAfterTombstone covers the tombstone/reinject interplay: a
// reinjected transaction must appear exactly once even though its dead
// entry may still be awaiting compaction.
func TestReinjectAfterTombstone(t *testing.T) {
	p := New(0)
	var txs []*types.Transaction
	for i := uint64(1); i <= 100; i++ {
		x := tx(i, 1)
		txs = append(txs, x)
		p.Add(x)
	}
	p.MarkIncluded(txs[:50])
	p.Reinject(txs[:50])
	if p.Len() != 100 {
		t.Fatalf("len = %d, want 100", p.Len())
	}
	seen := make(map[types.Hash]bool)
	batch := p.Batch(0, 0)
	if len(batch) != 100 {
		t.Fatalf("batch = %d, want 100", len(batch))
	}
	for _, x := range batch {
		if seen[x.Hash()] {
			t.Fatal("duplicate after reinject")
		}
		seen[x.Hash()] = true
	}
}

// TestConcurrentAddBatchInclude exercises the sharded paths under the
// race detector: parallel adders, a batch/include loop and Len/Known
// readers all run against one pool.
func TestConcurrentAddBatchInclude(t *testing.T) {
	p := New(0)
	const goroutines, each = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				x := tx(uint64(g)<<32|uint64(i+1), 1)
				if !p.Add(x) {
					t.Errorf("fresh tx refused")
					return
				}
				if i%50 == 0 {
					if b := p.Batch(32, 0); len(b) > 0 {
						p.MarkIncluded(b)
					}
				}
				p.Known(x.Hash())
				p.Len()
			}
		}(g)
	}
	wg.Wait()
	// Drain completely; every admitted tx is included exactly once.
	total := p.Len()
	for {
		b := p.Batch(100, 0)
		if len(b) == 0 {
			break
		}
		p.MarkIncluded(b)
		total -= len(b)
	}
	if total != 0 || p.Len() != 0 {
		t.Fatalf("pool did not drain: remainder=%d len=%d", total, p.Len())
	}
}

// TestSteadyStateMemoryBounded guards the compaction trigger: in FIFO
// steady state (adds balanced by includes over a standing pool) the
// pool must reclaim the consumed prefix instead of retaining every
// transaction ever admitted.
func TestSteadyStateMemoryBounded(t *testing.T) {
	p := New(0)
	id := uint64(1)
	for i := 0; i < 1000; i++ {
		p.Add(tx(id, 1))
		id++
	}
	for round := 0; round < 200; round++ {
		for i := 0; i < 256; i++ {
			p.Add(tx(id, 1))
			id++
		}
		p.MarkIncluded(p.Batch(256, 0))
	}
	p.mu.Lock()
	retained := len(p.pending)
	p.mu.Unlock()
	if limit := 4*p.Len() + 64; retained > limit {
		t.Fatalf("pool retains %d entries for %d live transactions (limit %d)",
			retained, p.Len(), limit)
	}
}

func TestFIFOOrder(t *testing.T) {
	p := New(0)
	var hs []types.Hash
	for i := uint64(1); i <= 5; i++ {
		x := tx(i, 1)
		hs = append(hs, x.Hash())
		p.Add(x)
	}
	batch := p.Batch(0, 0)
	for i, x := range batch {
		if x.Hash() != hs[i] {
			t.Fatal("batch not FIFO")
		}
	}
}

func TestNotifySignalsAdmissions(t *testing.T) {
	p := New(0)
	ch := p.Notify()
	select {
	case <-ch:
		t.Fatal("signal before any admission")
	default:
	}
	a := tx(1, 1)
	p.Add(a)
	select {
	case <-ch:
	default:
		t.Fatal("Add did not signal")
	}
	// Coalesced: many admissions leave at most one pending signal.
	for i := uint64(2); i < 10; i++ {
		p.Add(tx(i, 1))
	}
	<-ch
	select {
	case <-ch:
		t.Fatal("signal not coalesced")
	default:
	}
	// Duplicates do not signal.
	p.Add(a)
	select {
	case <-ch:
		t.Fatal("duplicate admission signalled")
	default:
	}
	// Reinject signals again.
	p.MarkIncluded([]*types.Transaction{a})
	p.Reinject([]*types.Transaction{a})
	select {
	case <-ch:
	default:
		t.Fatal("Reinject did not signal")
	}
}
