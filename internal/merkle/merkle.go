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

func hashLeaf(data []byte) types.Hash {
	buf := make([]byte, 1+len(data))
	buf[0] = leafPrefix
	copy(buf[1:], data)
	return types.HashData(buf)
}

func hashNode(l, r types.Hash) types.Hash {
	var buf [1 + 2*types.HashSize]byte
	buf[0] = nodePrefix
	copy(buf[1:], l[:])
	copy(buf[1+types.HashSize:], r[:])
	return types.HashData(buf[:])
}

// Root computes the Merkle root of the given leaves. An empty list hashes
// to the zero hash. Odd levels promote the unpaired node unchanged.
func Root(leaves [][]byte) types.Hash {
	if len(leaves) == 0 {
		return types.ZeroHash
	}
	level := make([]types.Hash, len(leaves))
	for i, l := range leaves {
		level[i] = hashLeaf(l)
	}
	for len(level) > 1 {
		next := make([]types.Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

// TxRoot computes the transaction root of a block body.
func TxRoot(txs []*types.Transaction) types.Hash {
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		h := tx.Hash()
		leaves[i] = h.Bytes()
	}
	return Root(leaves)
}
