package consensus

import (
	"slices"
	"testing"

	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// TestPickBatchIntoScratch: PickBatch appends to dst the first size
// pending transactions not in flight, and allocates nothing once dst
// has the capacity.
func TestPickBatchIntoScratch(t *testing.T) {
	pool := txpool.New(0)
	var txs []*types.Transaction
	for i := 0; i < 10; i++ {
		tx := &types.Transaction{Nonce: uint64(i), Method: "m"}
		if !pool.Add(tx) {
			t.Fatal("pool refused a transaction")
		}
		txs = append(txs, tx)
	}
	inFlight := map[types.Hash]bool{txs[1].Hash(): true, txs[3].Hash(): true}
	want := []*types.Transaction{txs[0], txs[2], txs[4], txs[5]}
	if got := PickBatch(nil, pool, 4, inFlight); !slices.Equal(got, want) {
		t.Fatalf("PickBatch(nil) = %v, want %v", got, want)
	}
	held := &types.Transaction{Nonce: 99}
	got := PickBatch([]*types.Transaction{held}, pool, 4, inFlight)
	if !slices.Equal(got, append([]*types.Transaction{held}, want...)) {
		t.Fatalf("PickBatch after one held transaction = %v", got)
	}
	scratch := PickBatch(nil, pool, 4, inFlight)
	if n := testing.AllocsPerRun(100, func() { scratch = PickBatch(scratch[:0], pool, 4, inFlight) }); n != 0 {
		t.Errorf("PickBatch into scratch: %v allocations, want 0", n)
	}
}
