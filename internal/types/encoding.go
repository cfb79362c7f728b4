package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// The deterministic binary encoding used for hashing, the journal's
// at-rest format and wire-size accounting is length-prefixed
// little-endian, a simplified stand-in for Ethereum's RLP. Encoders are
// append-style: AppendTo(dst) appends a value's encoding to dst and
// returns the extended slice, so a caller that sized dst (WireSize,
// HeaderSize) writes every byte once, into a buffer it owns.

// AppendBytes appends the byte string b to dst behind its 4-byte length.
func AppendBytes[B []byte | string](dst []byte, b B) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(b))), b...)
}

// ErrTruncated reports a decode past the end of the buffer.
var ErrTruncated = errors.New("types: truncated encoding")

// Decoder reads values in the order they were appended.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Raw reads n bytes without a length prefix; the result aliases the
// decoder's buffer.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads an 8-byte little-endian integer.
func (d *Decoder) Uint64() uint64 {
	b := d.Raw(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uint32 reads a 4-byte little-endian integer.
func (d *Decoder) Uint32() uint32 {
	b := d.Raw(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Count reads the 4-byte element count of a list whose elements each
// start with a 4-byte length prefix. A count the remaining bytes cannot
// hold is a truncated (or hostile) buffer: it is an error here, before
// any caller sizes an allocation by it.
func (d *Decoder) Count() int {
	n := int(d.Uint32())
	if rest := len(d.buf) - d.off; d.err == nil && (n < 0 || n > rest/4) {
		d.err = fmt.Errorf("%w: %d elements in %d bytes", ErrTruncated, n, rest)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte string (copied).
func (d *Decoder) Bytes() []byte { return bytes.Clone(d.Raw(int(d.Uint32()))) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Bool reads a single 0/1 byte.
func (d *Decoder) Bool() bool {
	b := d.Raw(1)
	return b != nil && b[0] != 0
}

// DecodeHeader parses a header from the deterministic encoding produced
// by Header.AppendTo, reading from d.
func DecodeHeader(d *Decoder) Header {
	var h Header
	h.Number = d.Uint64()
	copy(h.ParentHash[:], d.Raw(HashSize))
	copy(h.TxRoot[:], d.Raw(HashSize))
	copy(h.StateRoot[:], d.Raw(HashSize))
	h.Time = int64(d.Uint64())
	h.Difficulty = d.Uint64()
	h.PowNonce = d.Uint64()
	copy(h.Proposer[:], d.Raw(AddressSize))
	h.View = d.Uint64()
	h.GasLimit = d.Uint64()
	h.GasUsed = d.Uint64()
	return h
}

// EncodeBlock returns the full wire encoding of a block: the header
// followed by a count-prefixed transaction list. It is the durable
// at-rest format the platform layer persists for crash recovery, so it
// round-trips byte-identically through DecodeBlock.
func EncodeBlock(b *Block) []byte {
	return AppendBlock(make([]byte, 0, b.WireSize()+4+4*len(b.Txs)), b)
}

// AppendBlock appends EncodeBlock's bytes for b to dst: a caller that
// encodes block after block (the recovery journal) reuses one buffer.
func AppendBlock(dst []byte, b *Block) []byte {
	buf := b.Header.AppendTo(dst)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		// Reserve the length prefix and fill it in behind the
		// transaction, so the format never depends on WireSize.
		at := len(buf)
		buf = tx.AppendTo(append(buf, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf
}

// DecodeBlock parses a block encoded by EncodeBlock.
func DecodeBlock(buf []byte) (*Block, error) {
	d := NewDecoder(buf)
	b := &Block{Header: DecodeHeader(d)}
	n := d.Count()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > 0 {
		b.Txs = make([]*Transaction, n)
		for i := 0; i < n; i++ {
			tx, err := DecodeTransaction(d.Bytes())
			if err != nil {
				return nil, err
			}
			b.Txs[i] = tx
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeTransaction parses a transaction wire encoding from AppendTo.
func DecodeTransaction(buf []byte) (*Transaction, error) {
	d := NewDecoder(buf)
	tx := &Transaction{}
	tx.Nonce = d.Uint64()
	copy(tx.From[:], d.Bytes())
	copy(tx.To[:], d.Bytes())
	tx.Value = d.Uint64()
	tx.Contract = d.String()
	tx.Method = d.String()
	if n := d.Count(); n > 0 {
		tx.Args = make([][]byte, n)
		for i := 0; i < n; i++ {
			tx.Args[i] = d.Bytes()
		}
	}
	tx.GasLimit = d.Uint64()
	tx.Sig = d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return tx, nil
}
