//go:build !race

package platform

import "testing"

// TestBlockAppendAllocBudget holds TestQuorumAppendAllocBudget's path to
// a per-block ceiling on blocks of two transactions, what a paced Raft
// block carries, where a cost paid per block weighs half a
// transaction's. The block executes on the DB the chain kept from the
// one before, and the journal encodes its key and record into the
// node's scratch: a DB opened per block (with its trie and the trie's
// regrown buffers, 13 allocations more) or a journal key and record
// allocated per block (3 more) breaks the ceiling. Not under the race
// detector: there sync.Pool drops buffers at random, and the median
// moves by up to five.
func TestBlockAppendAllocBudget(t *testing.T) {
	const ceiling = 60 // allocations per block of two transactions: 58 when written, 74 before
	perBlk := appendAllocs(t, 31, 2)
	t.Logf("Chain.Append: %d allocations per block of 2 transactions (median of 31)", perBlk)
	if perBlk > ceiling {
		t.Errorf("Chain.Append: %d allocations per block of 2 transactions, ceiling %d", perBlk, ceiling)
	}
}
