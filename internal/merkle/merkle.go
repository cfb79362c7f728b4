// Package merkle implements the classic binary Merkle tree used for block
// transaction roots ("the hash tree for transaction list is a classic
// Merkle tree, as the list is not large").
package merkle

import (
	"blockbench/internal/types"
)

// leafPrefix and nodePrefix domain-separate leaf and interior hashes so a
// leaf can never be reinterpreted as an interior node (second-preimage
// hardening, as in RFC 6962).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

func hashLeaf(h types.Hash) types.Hash {
	var buf [1 + types.HashSize]byte
	buf[0] = leafPrefix
	copy(buf[1:], h[:])
	return types.HashData(buf[:])
}

func hashNode(l, r types.Hash) types.Hash {
	var buf [1 + 2*types.HashSize]byte
	buf[0] = nodePrefix
	copy(buf[1:], l[:])
	copy(buf[1+types.HashSize:], r[:])
	return types.HashData(buf[:])
}

// stackLeaves is the widest block body whose tree is built on the
// stack (2 KB); Raft and PBFT batch 20 transactions by default.
const stackLeaves = 64

// TxRoot computes the transaction root of a block body: the root of the
// binary tree over the transactions' hashes. An empty list hashes to the
// zero hash. Odd levels promote the unpaired node unchanged.
func TxRoot(txs []*types.Transaction) types.Hash {
	if len(txs) == 0 {
		return types.ZeroHash
	}
	var stack [stackLeaves]types.Hash
	level := stack[:]
	if len(txs) > stackLeaves {
		level = make([]types.Hash, len(txs))
	}
	level = level[:len(txs)]
	for i, tx := range txs {
		level[i] = hashLeaf(tx.Hash())
	}
	// Reduce each level in place: node i of the next level is written
	// at i after nodes 2i and 2i+1 were read, and 2i >= i.
	for len(level) > 1 {
		n := 0
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				level[n] = hashNode(level[i], level[i+1])
			} else {
				level[n] = level[i]
			}
			n++
		}
		level = level[:n]
	}
	return level[0]
}
