package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoder builds the deterministic binary encoding used for hashing and
// message serialization. Layout is length-prefixed little-endian; it is a
// simplified stand-in for Ethereum's RLP.
type Encoder struct{ buf []byte }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 256)} }

// Uint64 appends an 8-byte little-endian integer.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Uint32 appends a 4-byte little-endian integer.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b without a length prefix (fixed-size fields).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Out returns the accumulated encoding.
func (e *Encoder) Out() []byte { return e.buf }

// Reset empties the encoder, keeping its buffer for the next encoding;
// slices previously returned by Out are overwritten.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// ErrTruncated reports a decode past the end of the buffer.
var ErrTruncated = errors.New("types: truncated encoding")

// Decoder reads values written by Encoder, in the same order.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads an 8-byte little-endian integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uint32 reads a 4-byte little-endian integer.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Bytes reads a length-prefixed byte string (copied).
func (d *Decoder) Bytes() []byte {
	n := int(d.Uint32())
	if d.err != nil {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Raw reads n bytes without a length prefix.
func (d *Decoder) Raw(n int) []byte { return d.take(n) }

// Bool reads a single 0/1 byte.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// DecodeHeader parses a header from the deterministic encoding produced
// by Header.Encode, reading from d.
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
	e := NewEncoder()
	e.Raw(b.Header.Encode())
	e.Uint32(uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		e.Bytes(tx.Encode())
	}
	return e.Out()
}

// DecodeBlock parses a block encoded by EncodeBlock.
func DecodeBlock(buf []byte) (*Block, error) {
	d := NewDecoder(buf)
	b := &Block{Header: DecodeHeader(d)}
	n := int(d.Uint32())
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

// DecodeTransaction parses a transaction wire encoding from Encode.
func DecodeTransaction(buf []byte) (*Transaction, error) {
	d := NewDecoder(buf)
	tx := &Transaction{}
	tx.Nonce = d.Uint64()
	copy(tx.From[:], d.Bytes())
	copy(tx.To[:], d.Bytes())
	tx.Value = d.Uint64()
	tx.Contract = d.String()
	tx.Method = d.String()
	n := int(d.Uint32())
	if n > 0 && d.Err() == nil {
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
