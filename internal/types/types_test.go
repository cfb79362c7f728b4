package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestHashHex(t *testing.T) {
	h := HashData([]byte("hello"))
	if len(h.Hex()) != 2+64 {
		t.Fatalf("hex length = %d, want 66", len(h.Hex()))
	}
	if h.IsZero() {
		t.Fatal("hash of data should not be zero")
	}
	if !ZeroHash.IsZero() {
		t.Fatal("ZeroHash.IsZero() = false")
	}
}

func TestBytesToHashTruncates(t *testing.T) {
	long := make([]byte, 40)
	for i := range long {
		long[i] = byte(i)
	}
	h := BytesToHash(long)
	if !bytes.Equal(h[:], long[8:]) {
		t.Fatal("BytesToHash should keep the last 32 bytes")
	}
	short := []byte{1, 2, 3}
	h = BytesToHash(short)
	if h[31] != 3 || h[30] != 2 || h[29] != 1 || h[0] != 0 {
		t.Fatalf("BytesToHash short padding wrong: %x", h)
	}
}

func TestBytesToAddress(t *testing.T) {
	a := BytesToAddress([]byte{0xab})
	if a[AddressSize-1] != 0xab {
		t.Fatal("last byte not set")
	}
	if a.IsZero() {
		t.Fatal("non-zero address reported zero")
	}
}

func TestTransactionHashStable(t *testing.T) {
	tx := &Transaction{Nonce: 7, Value: 100, Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 21000}
	h1 := tx.Hash()
	h2 := tx.Hash()
	if h1 != h2 {
		t.Fatal("hash not stable")
	}
	tx2 := &Transaction{Nonce: 8, Value: 100, Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 21000}
	if tx2.Hash() == h1 {
		t.Fatal("different nonce produced identical hash")
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := &Transaction{
		Nonce:    42,
		From:     BytesToAddress([]byte("alice")),
		To:       BytesToAddress([]byte("bob")),
		Value:    999,
		Contract: "smallbank",
		Method:   "sendPayment",
		Args:     [][]byte{U64Bytes(1), U64Bytes(2), U64Bytes(50)},
		GasLimit: 100000,
		Sig:      []byte{1, 2, 3, 4},
	}
	dec, err := DecodeTransaction(tx.AppendTo(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Hash() != tx.Hash() {
		t.Fatal("round trip changed hash")
	}
	if !bytes.Equal(dec.Sig, tx.Sig) {
		t.Fatal("signature lost")
	}
	if dec.From != tx.From || dec.To != tx.To || dec.Value != tx.Value {
		t.Fatal("fields lost")
	}
	if len(dec.Args) != 3 || U64(dec.Args[2]) != 50 {
		t.Fatal("args lost")
	}
}

func TestDecodeTransactionTruncated(t *testing.T) {
	tx := &Transaction{Nonce: 1, Method: "m"}
	enc := tx.AppendTo(nil)
	for cut := 0; cut < len(enc); cut += 5 {
		if _, err := DecodeTransaction(enc[:cut]); err == nil && cut < len(enc)-1 {
			// Some prefixes may decode to a valid shorter tx only if all
			// length prefixes align; a nil error with wrong hash is fine,
			// but errors must never panic. Check hash inequality instead.
			dec, _ := DecodeTransaction(enc[:cut])
			if dec != nil && dec.Hash() == tx.Hash() && cut < len(enc)-len(tx.Sig)-4 {
				t.Fatalf("truncated decode at %d matched full tx", cut)
			}
		}
	}
}

func TestTransactionWireSizeMatchesEncode(t *testing.T) {
	f := func(nonce, value uint64, contract, method string, a1, a2, sig []byte) bool {
		tx := &Transaction{Nonce: nonce, Value: value, Contract: contract,
			Method: method, Args: [][]byte{a1, a2}, Sig: sig}
		return tx.WireSize() == len(tx.AppendTo(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderSealHashIgnoresNonce(t *testing.T) {
	h := Header{Number: 5, Difficulty: 1000, PowNonce: 12345}
	h2 := h
	h2.PowNonce = 99999
	if h.SealHash() != h2.SealHash() {
		t.Fatal("seal hash must not depend on PowNonce")
	}
	if h.Hash() == h2.Hash() {
		t.Fatal("full hash must depend on PowNonce")
	}
}

func TestBlockHashCached(t *testing.T) {
	b := &Block{Header: Header{Number: 3}}
	if b.Hash() != b.Hash() {
		t.Fatal("unstable block hash")
	}
	if b.Number() != 3 {
		t.Fatal("wrong number")
	}
}

func TestBlockWireSize(t *testing.T) {
	b := &Block{Header: Header{Number: 1}}
	base := b.WireSize()
	b.Txs = append(b.Txs, &Transaction{Method: "x"})
	if b.WireSize() <= base {
		t.Fatal("adding tx did not grow wire size")
	}
}

func TestU64RoundTrip(t *testing.T) {
	f := func(v uint64) bool { return U64(U64Bytes(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if U64([]byte{1}) != 1 {
		t.Fatal("short decode failed")
	}
	if U64(nil) != 0 {
		t.Fatal("nil decode failed")
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	buf := binary.LittleEndian.AppendUint64(nil, 77)
	buf = binary.LittleEndian.AppendUint32(buf, 13)
	buf = AppendBytes(buf, []byte("payload"))
	buf = AppendBytes(buf, "name")
	buf = append(buf, 1, 0)
	d := NewDecoder(buf)
	if d.Uint64() != 77 || d.Uint32() != 13 {
		t.Fatal("ints lost")
	}
	if string(d.Bytes()) != "payload" || d.String() != "name" {
		t.Fatal("strings lost")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools lost")
	}
	if d.Err() != nil {
		t.Fatalf("unexpected err: %v", d.Err())
	}
	if d.Uint64() != 0 || d.Err() == nil {
		t.Fatal("reading past end must set error")
	}
}

// TestDecodeHostileCounts: an element count read from the buffer must
// never size an allocation the buffer cannot back. A 176-byte journal
// record claiming 2^32-1 transactions asked the runtime for 32 GB.
func TestDecodeHostileCounts(t *testing.T) {
	block := EncodeBlock(&Block{Header: Header{Number: 1}})
	tx := (&Transaction{Nonce: 1, Method: "m"}).AppendTo(nil)
	argCount := 8 + 2*(4+AddressSize) + 8 + 4 + 4 + len("m")
	for _, count := range []uint32{1 << 22, 1<<32 - 1} {
		hostileBlock := append([]byte{}, block...)
		binary.LittleEndian.PutUint32(hostileBlock[HeaderSize:], count)
		hostileTx := append([]byte{}, tx...)
		binary.LittleEndian.PutUint32(hostileTx[argCount:], count)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, blockErr := DecodeBlock(hostileBlock)
		_, txErr := DecodeTransaction(hostileTx)
		runtime.ReadMemStats(&after)
		if !errors.Is(blockErr, ErrTruncated) || !errors.Is(txErr, ErrTruncated) {
			t.Errorf("count %d: errors %v and %v, want ErrTruncated", count, blockErr, txErr)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("count %d: decoding %d and %d bytes allocated %d", count, len(hostileBlock), len(hostileTx), got)
		}
	}
}

// TestAppendBlockExtendsDst: AppendBlock leaves dst's bytes in place
// and appends exactly EncodeBlock's, whatever dst already holds.
func TestAppendBlockExtendsDst(t *testing.T) {
	for _, n := range []int{0, 1, 20} {
		b := budgetBlock(n)
		want := EncodeBlock(b)
		for _, prefix := range [][]byte{nil, []byte("blk:"), make([]byte, 300)} {
			dst := append([]byte(nil), prefix...)
			got := AppendBlock(dst, b)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%d transactions after a %d-byte prefix: AppendBlock differs from EncodeBlock", n, len(prefix))
			}
		}
	}
}

func budgetBlock(n int) *Block {
	b := &Block{Header: Header{Number: 1, Time: 1, Difficulty: 1}}
	for i := 0; i < n; i++ {
		b.Txs = append(b.Txs, &Transaction{Nonce: uint64(i), Contract: "ycsb", Method: "write",
			Args: [][]byte{make([]byte, 20), make([]byte, 100)}, GasLimit: 100_000, Sig: make([]byte, 72)})
	}
	return b
}

// TestCodecAllocBudget: encodings are appended to a buffer the caller
// sized, and hashes are taken from the stack. Every node encodes every
// block for its journal and hashes its header several times, so an
// allocation here is paid per transaction per node.
func TestCodecAllocBudget(t *testing.T) {
	b := budgetBlock(20)
	if got := testing.AllocsPerRun(100, func() { EncodeBlock(b) }); got != 1 {
		t.Errorf("EncodeBlock of 20 transactions: %v allocations, want 1", got)
	}
	buf := AppendBlock(nil, b)
	if got := testing.AllocsPerRun(100, func() { buf = AppendBlock(buf[:0], b) }); got != 0 {
		t.Errorf("AppendBlock of 20 transactions into a buffer that fits: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { b.Header.Hash(); b.Header.SealHash() }); got != 0 {
		t.Errorf("Header.Hash and SealHash: %v allocations, want 0", got)
	}
	fresh := budgetBlock(101).Txs
	i := 0
	if got := testing.AllocsPerRun(100, func() { fresh[i].Hash(); i++ }); got > 1 {
		t.Errorf("first Transaction.Hash: %v allocations, want at most the cached pointer", got)
	}
}

var encSink []byte

func BenchmarkEncodeBlock(b *testing.B) {
	blk := budgetBlock(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encSink = EncodeBlock(blk)
	}
}
