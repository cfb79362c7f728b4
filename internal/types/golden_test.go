package types_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"blockbench/internal/merkle"
	"blockbench/internal/types"
)

// goldenTx is transaction i of the fixed fixture: every field set, the
// argument count cycling 0..3 with an empty argument among them, value
// transfers (no contract) mixed in, and a signature-sized blob that is
// not a real signature (ECDSA signatures are not reproducible).
func goldenTx(i int) *types.Transaction {
	seed := sha256.Sum256([]byte(fmt.Sprintf("golden-tx-%d", i)))
	tx := &types.Transaction{
		Nonce:    uint64(i) * 7,
		From:     types.BytesToAddress(seed[:20]),
		To:       types.BytesToAddress(seed[12:]),
		Value:    uint64(i) << 20,
		GasLimit: 21000 + uint64(i),
		Sig:      bytes.Repeat(seed[:], 3)[:64+i%9],
	}
	if i%4 != 3 {
		tx.Contract = []string{"ycsb", "smallbank", "ioheavy"}[i%3]
		tx.Method = []string{"write", "sendPayment", "scan", "r"}[i%4]
	}
	for a := 0; a < i%4; a++ {
		tx.Args = append(tx.Args, seed[:a*(i+a)%33]) // the first is empty
	}
	return tx
}

// goldenBlock is the fixture block with n transactions and every header
// field non-zero.
func goldenBlock(n int) *types.Block {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = goldenTx(i)
	}
	return &types.Block{
		Header: types.Header{
			Number:     uint64(n) + 1,
			ParentHash: types.HashData([]byte("parent")),
			TxRoot:     merkle.TxRoot(txs),
			StateRoot:  types.HashData([]byte("state")),
			Time:       1_700_000_000_000_000_000 + int64(n),
			Difficulty: 1 << 20,
			PowNonce:   0xdeadbeef,
			Proposer:   types.BytesToAddress([]byte("proposer")),
			View:       3,
			GasLimit:   8_000_000,
			GasUsed:    uint64(n) * 21000,
		},
		Txs: txs,
	}
}

// golden holds, per fixture block, the values captured on the commit
// before the codec and the Merkle tree were rewritten (PR 22's parent):
// SHA-256 of EncodeBlock, Block.Hash, Header.SealHash and TxRoot. The
// journal's at-rest format and every tx root depend on them; a change
// that moves one is a format change, not an optimisation.
var golden = []struct {
	n                       int
	enc, hash, seal, txRoot string
}{
	{0, "0e1793bedabedc8538f9a04cf3dcfcabe44502e1523b6971f04387b32f807c44", "a71cf283378f8de832a718f4127be90f0f17e0e5824c47e7ab3fe54a1b819cbc", "8858221a7912d19ed215cc4fa2695cf423ad1f232b991a9a7424a5505d7df2e2", "0000000000000000000000000000000000000000000000000000000000000000"},
	{1, "5b761ec6af25242ffe89b3e409aa4a4a0cb3b1b4cc4cfecdcd55e14a58d942f5", "bbd414f6401e9c2216baaea5496220a29c7e56f91899f7f8eed89634519cb54e", "1af78c5ec85dca3eed3221446675aa81615fd713717d42ddcb1c09f2504d45dc", "edc1d0b25dfa92e25a9c74b57c28d0112a3035731fbb48809ed977e6a01c1acb"},
	{2, "51081b454a177d7f14678192caa7b5ef32a9c7c3db1ce6cf617e9f89d0246fd4", "5bc0b55081801f0bf2dcd2723bc930ebfb84c7c094c86d289651bc0cebfc0278", "25b3c0fc6e8ac7c43e79b78f30afb7656d5366346389331938cb33e25ac4f734", "4efd0dd21579787b775c6401a7953c2b4ccedd4f119804fd1274428c30c4c86d"},
	{3, "e056f1a38b7af0dff6b25c764fb1e681f7b133a8180b701a0c5810f61ba735f5", "e03160e2799bbbb72b1810f16355a53a969ac531d5944db540a3db8ff2e1e6f1", "c10d59b7dc8aa68cbdc1bf9b6c0c59e7d86afcd6db2e54f3a5b72a5c1862fa06", "bcfc7a10e54b876d5e5c6d68aaa3b96c607f4728ebd38d080e3bdf1f53e4554a"},
	{5, "0ca4f3cd625543134c97fed2d350876b3d76be5e8e48fddc1b23ca6f8982b81f", "a0a34a99eefb8e640868c2d2f4c1c72b9c11bae16baa8d7e7a0954634eb022cc", "c2f881691f546473fca17ab581983d360cb6f91c0c99f448281d4d59de973a8c", "ce7e9e7ca80164c21aea24a24d1dd81f69a8261a3e523e0656fb69f48872c893"},
	{8, "0edae5ac35a7651b90699e6bed646ecdd44a500681c32f2516f7c2d48d04d5a0", "4a57d4b11f05911c99eab3fc98a316a19bc735900903422186b394d9f53874fe", "7700bd58b90bcffed0f8b5a0ba63db5a523560f7dea7018c06f5e77429ecb72c", "3547e0a51e6dea77702e3c782050ba996e3d0b40c9dccb0408cc1388c6edf003"},
	{20, "7ee15eafc79f83e08338c8db45e5ec7db0702bfba3b2706903f8b5bc82ea4639", "38c4e8cc77c09c37b50dba07e002521c2edc47a2b301d894e0fef9ae383ddf1d", "28e237c5f488b06930c1cbf34f87a536316520c1bab8691949cc8167caec4775", "bc6a07ee597eb1bd139ded3c1b74f953f95600c35a190ea425a6e150902d0e7a"},
	{64, "72f7447e49a88b9e614aa3e5548d1fe9cfa838292de1f761d30706a2339c9197", "0daaebafccf53777ed9d06ba56f226d0b8d17f4a841d256ec803e2be53f6bc16", "07f33497bf8d11b49f2f251803c2b6a8e7539156e4c4d2c627bd8d2f078151b0", "803d2c6a35514300e44d6d2eed7992bb0a9e6e9739c6e6cf956708053703c1bb"},
	{65, "b362358282032e889582d6839d12ae589cd55cfb030f3327561fee6c9fecdfcd", "31ccfa763c720d210c7b8b07ebfb3f5716b5e15728f353a1d34773178dada5dd", "e98eba68f1b801f0a814f455825bf7daac2f926612531207738bbc9aab4fd45d", "77a5b054ff3f3bf81bc49c3b78b1c3878c7676d4b3265c14222e4bb4c4fa9077"},
	{100, "8fab1800840eb93cfec55ea0a2aedbf75fb4dc8d5bfba0e80f551fb777bce5d3", "1ade1c965464691d2dea40a92993dda930a53fd71ef0cf049f8211706dfb9f44", "aa9865a00b91c8a4e1941a2d01be85285498c06ea1a78dd248ead1a1aa79c964", "208826f70c10702cd9a604e738f31591fad475c5ad789fb10174e7c3da2685f4"},
}

// goldenTxDigest is the SHA-256 over Transaction.Hash || SHA-256(Encode)
// of fixture transactions 0..99, from the same commit.
const goldenTxDigest = "b146d2caf75ac0f100a84f9428ac3652cb06ed89688616e73a984780bd366d40"

func TestGoldenBytes(t *testing.T) {
	hx := func(h [32]byte) string { return hex.EncodeToString(h[:]) }
	for _, want := range golden {
		b := goldenBlock(want.n)
		enc := types.EncodeBlock(b)
		got := [4]string{hx(sha256.Sum256(enc)), hx(b.Hash()), hx(b.Header.SealHash()), hx(merkle.TxRoot(b.Txs))}
		if got != [4]string{want.enc, want.hash, want.seal, want.txRoot} {
			t.Errorf("n=%d: got {%d, %q, %q, %q, %q}", want.n, want.n, got[0], got[1], got[2], got[3])
		}
		// WireSize is the header plus the transactions; EncodeBlock adds
		// the 4-byte count and a 4-byte length prefix per transaction.
		if b.WireSize() != len(enc)-4-4*want.n {
			t.Errorf("n=%d: WireSize %d, EncodeBlock %d bytes", want.n, b.WireSize(), len(enc))
		}
		back, err := types.DecodeBlock(enc)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", want.n, err)
		}
		if !bytes.Equal(types.EncodeBlock(back), enc) || back.Hash() != b.Hash() {
			t.Errorf("n=%d: round trip changed the bytes", want.n)
		}
		for i, tx := range back.Txs {
			orig := b.Txs[i]
			if tx.Hash() != orig.Hash() || !bytes.Equal(tx.Sig, orig.Sig) || len(tx.Args) != len(orig.Args) {
				t.Errorf("n=%d: tx %d changed in the round trip", want.n, i)
			}
		}
	}
	if len(golden) != 10 {
		t.Errorf("golden table has %d rows, want 10", len(golden))
	}

	d := sha256.New()
	for i := 0; i < 100; i++ {
		tx := goldenTx(i)
		enc := tx.AppendTo(nil)
		if tx.WireSize() != len(enc) {
			t.Errorf("tx %d: WireSize %d, Encode %d bytes", i, tx.WireSize(), len(enc))
		}
		h, e := tx.Hash(), sha256.Sum256(enc)
		d.Write(h[:])
		d.Write(e[:])
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != goldenTxDigest {
		t.Errorf("tx digest: got %q", got)
	}
}
