// Package types defines the fundamental blockchain data types shared by
// every layer of the stack: hashes, addresses, transactions, blocks and
// receipts, together with a deterministic binary encoding used both for
// content hashing and for wire-size accounting on the simulated network.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// HashSize is the byte length of a content hash.
const HashSize = 32

// AddressSize is the byte length of an account address.
const AddressSize = 20

// Hash is a 32-byte content digest.
type Hash [HashSize]byte

// Address identifies an account (externally owned or contract).
type Address [AddressSize]byte

// ZeroHash is the all-zero hash, used as the genesis parent.
var ZeroHash Hash

// ZeroAddress is the all-zero address.
var ZeroAddress Address

// BytesToHash copies b into a Hash, left-truncating if b is too long.
func BytesToHash(b []byte) Hash {
	var h Hash
	if len(b) > HashSize {
		b = b[len(b)-HashSize:]
	}
	copy(h[HashSize-len(b):], b)
	return h
}

// HashData returns the SHA-256 digest of data.
func HashData(data []byte) Hash { return sha256.Sum256(data) }

// Hex returns the hexadecimal representation prefixed with 0x.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// Short returns an abbreviated hex form for logging.
func (h Hash) Short() string { return "0x" + hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is all zeroes.
func (h Hash) IsZero() bool { return h == ZeroHash }

func (h Hash) String() string { return h.Short() }

// BytesToAddress copies b into an Address, left-truncating if too long.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressSize {
		b = b[len(b)-AddressSize:]
	}
	copy(a[AddressSize-len(b):], b)
	return a
}

func (a Address) String() string { return "0x" + hex.EncodeToString(a[:4]) }

// IsZero reports whether the address is all zeroes.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Bytes returns the address as a byte slice.
func (a Address) Bytes() []byte { return a[:] }

// Transaction is a signed state transition request. Contract interactions
// carry the target contract name, a method selector and raw argument
// blobs; plain value transfers leave Contract empty.
type Transaction struct {
	Nonce    uint64
	From     Address
	To       Address
	Value    uint64
	Contract string   // target contract name; empty for value transfer
	Method   string   // contract method selector
	Args     [][]byte // raw encoded arguments
	GasLimit uint64
	Sig      []byte // signature over Hash() by From

	hash atomic.Pointer[Hash]
}

// Hash returns the content hash of the transaction (signature excluded),
// caching the result.
func (tx *Transaction) Hash() Hash {
	if h := tx.hash.Load(); h != nil {
		return *h
	}
	var buf [512]byte // on the stack; a longer encoding spills to the heap
	h := HashData(tx.appendForHash(buf[:0]))
	tx.hash.Store(&h)
	return h
}

// appendForHash appends the signed part of the encoding: every field
// but the signature.
func (tx *Transaction) appendForHash(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tx.Nonce)
	dst = AppendBytes(dst, tx.From[:])
	dst = AppendBytes(dst, tx.To[:])
	dst = binary.LittleEndian.AppendUint64(dst, tx.Value)
	dst = AppendBytes(dst, tx.Contract)
	dst = AppendBytes(dst, tx.Method)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tx.Args)))
	for _, a := range tx.Args {
		dst = AppendBytes(dst, a)
	}
	return binary.LittleEndian.AppendUint64(dst, tx.GasLimit)
}

// AppendTo appends the full wire encoding, including the signature.
func (tx *Transaction) AppendTo(dst []byte) []byte {
	return AppendBytes(tx.appendForHash(dst), tx.Sig)
}

// WireSize reports the encoded size in bytes, used for network accounting.
func (tx *Transaction) WireSize() int {
	n := 8 + AddressSize + 4 + AddressSize + 4 + 8 +
		4 + len(tx.Contract) + 4 + len(tx.Method) + 4 + 8 +
		4 + len(tx.Sig)
	for _, a := range tx.Args {
		n += 4 + len(a)
	}
	return n
}

// Header is the block header. PoW fields (Difficulty, PowNonce) are zero
// for PoA/PBFT chains; View is only meaningful for PBFT.
type Header struct {
	Number     uint64
	ParentHash Hash
	TxRoot     Hash
	StateRoot  Hash
	Time       int64 // unix nanoseconds at proposal
	Difficulty uint64
	PowNonce   uint64
	Proposer   Address
	View       uint64
	GasLimit   uint64
	GasUsed    uint64
}

// HeaderSize is the byte length of every header's encoding: its fields
// are all fixed-width.
const HeaderSize = 8 + 3*HashSize + 3*8 + AddressSize + 3*8

// AppendTo appends the deterministic binary encoding of the header.
func (h *Header) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, h.Number)
	dst = append(dst, h.ParentHash[:]...)
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.StateRoot[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Time))
	dst = binary.LittleEndian.AppendUint64(dst, h.Difficulty)
	dst = binary.LittleEndian.AppendUint64(dst, h.PowNonce)
	dst = append(dst, h.Proposer[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, h.View)
	dst = binary.LittleEndian.AppendUint64(dst, h.GasLimit)
	return binary.LittleEndian.AppendUint64(dst, h.GasUsed)
}

// Hash returns the content hash of the header, which identifies the block.
func (h *Header) Hash() Hash {
	var buf [HeaderSize]byte
	return HashData(h.AppendTo(buf[:0]))
}

// SealHash returns the hash of the header with the PoW solution zeroed;
// miners search for a PowNonce such that H(SealHash||nonce) meets target.
func (h *Header) SealHash() Hash {
	cp := *h
	cp.PowNonce = 0
	return cp.Hash()
}

// Block is a header plus its transaction list.
type Block struct {
	Header Header
	Txs    []*Transaction

	hash atomic.Pointer[Hash]
}

// Hash returns the block identity (the header hash), caching the result.
func (b *Block) Hash() Hash {
	if h := b.hash.Load(); h != nil {
		return *h
	}
	h := b.Header.Hash()
	b.hash.Store(&h)
	return h
}

// Number returns the block height.
func (b *Block) Number() uint64 { return b.Header.Number }

// WireSize reports the encoded block size in bytes.
func (b *Block) WireSize() int {
	n := HeaderSize
	for _, tx := range b.Txs {
		n += tx.WireSize()
	}
	return n
}

func (b *Block) String() string {
	return fmt.Sprintf("block{#%d %s txs=%d}", b.Header.Number, b.Hash().Short(), len(b.Txs))
}

// Receipt records the outcome of executing a transaction in a block.
type Receipt struct {
	TxHash  Hash
	OK      bool
	GasUsed uint64
	Output  []byte
	Err     string
}

// NewReceipts returns n zero receipts backed by one allocation, for a
// block's executor to fill in place.
func NewReceipts(n int) []*Receipt {
	slab := make([]Receipt, n)
	out := make([]*Receipt, n)
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

// U64Bytes encodes v as 8 big-endian bytes. It is the canonical integer
// argument encoding used by contracts in this repository.
func U64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// U64 decodes a big-endian integer from b (shorter slices are allowed and
// treated as left-padded with zeroes).
func U64(b []byte) uint64 {
	var buf [8]byte
	if len(b) > 8 {
		b = b[len(b)-8:]
	}
	copy(buf[8-len(b):], b)
	return binary.BigEndian.Uint64(buf[:])
}
