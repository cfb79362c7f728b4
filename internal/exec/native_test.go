package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"blockbench/internal/bmt"
	"blockbench/internal/contracts"
	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

func newBucketDB(t *testing.T) *state.DB {
	t.Helper()
	b, err := state.NewBucketBackend(kvstore.NewMem(), bmt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return state.NewDB(b)
}

// smallbankBlock is n ops of the Smallbank mix over 16 accounts that
// start empty, so writeCheck and sendPayment often overdraw and revert.
func smallbankBlock(rng *rand.Rand, n int) []*types.Transaction {
	acct := func() []byte { return types.U64Bytes(uint64(rng.Intn(16))) }
	txs := make([]*types.Transaction, n)
	for i := range txs {
		a, b, amt := acct(), acct(), types.U64Bytes(uint64(1+rng.Intn(60)))
		tx := &types.Transaction{Contract: "smallbank", Args: [][]byte{a, amt}, Nonce: uint64(i)}
		switch rng.Intn(6) {
		case 0:
			tx.Method = "transactSavings"
		case 1:
			tx.Method = "depositChecking"
		case 2, 3:
			tx.Method, tx.Args = "sendPayment", [][]byte{a, b, amt}
		case 4:
			tx.Method = "writeCheck"
		default:
			tx.Method, tx.Args = "amalgamate", [][]byte{a, b}
		}
		txs[i] = tx
	}
	return txs
}

// goldenBlocks is six Smallbank blocks, then one block that takes every
// other chaincode through its writes and each of its fixed reverts.
func goldenBlocks() [][]*types.Transaction {
	rng := rand.New(rand.NewSource(7))
	var blocks [][]*types.Transaction
	for range 6 {
		blocks = append(blocks, smallbankBlock(rng, 40))
	}
	alice, bob := types.BytesToAddress([]byte("alice")), types.BytesToAddress([]byte("bob"))
	u := types.U64Bytes
	tx := func(from types.Address, value uint64, contract, method string, args ...[]byte) *types.Transaction {
		return &types.Transaction{From: from, Value: value, Contract: contract, Method: method, Args: args}
	}
	blocks = append(blocks, []*types.Transaction{
		tx(alice, 0, "smallbank", "getBalance", u(3)),
		tx(alice, 0, "smallbank", "nope"),
		tx(alice, 0, "etherid", "prealloc", alice[:], u(500)),
		tx(bob, 0, "etherid", "prealloc", bob[:], u(100)),
		tx(alice, 0, "etherid", "register", u(7), u(200)),
		tx(bob, 0, "etherid", "register", u(7), u(10)),
		tx(bob, 0, "etherid", "transfer", u(7), bob[:]),
		tx(bob, 0, "etherid", "transfer", u(8), bob[:]),
		tx(bob, 0, "etherid", "buy", u(7)),
		tx(bob, 0, "etherid", "buy", u(8)),
		tx(alice, 0, "etherid", "transfer", u(7), bob[:]),
		tx(alice, 0, "etherid", "query", u(7)),
		tx(alice, 0, "etherid", "query", u(9)),
		tx(alice, 100, "doubler", "enter"),
		tx(bob, 100, "doubler", "enter"),
		tx(alice, 100, "doubler", "enter"),
		tx(bob, 300, "doubler", "enter"),
		tx(alice, 0, "wavespresale", "newSale", u(1), u(100)),
		tx(bob, 0, "wavespresale", "newSale", u(1), u(5)),
		tx(bob, 0, "wavespresale", "newSale", u(2), u(50)),
		tx(bob, 0, "wavespresale", "transferSale", u(1), bob[:]),
		tx(bob, 0, "wavespresale", "transferSale", u(3), bob[:]),
		tx(alice, 0, "wavespresale", "transferSale", u(1), bob[:]),
		tx(alice, 0, "ioheavy", "write", u(20), u(9999)),
		tx(alice, 0, "ioheavy", "read", u(20), u(9999)),
		tx(alice, 0, "versionkv", "prealloc", []byte("acct-1"), u(1000)),
		tx(alice, 0, "versionkv", "sendValue", []byte("acct-1"), []byte("acct-2"), u(300)),
		tx(alice, 0, "versionkv", "sendValue", []byte("acct-2"), []byte("acct-1"), u(400)),
		tx(alice, 0, "ycsb", "write", []byte("user0000000001"), []byte("v1")),
		tx(alice, 0, "ycsb", "read", []byte("user0000000001")),
		tx(alice, 0, "ycsb", "read", []byte("user0000000002")),
		tx(alice, 0, "ycsb", "delete", []byte("user0000000001")),
		tx(alice, 0, "cpuheavy", "sort", u(50)),
		tx(alice, 0, "donothing", "x"),
	})
	return blocks
}

// TestNativeGolden pins what the chaincodes write and say: the bucket
// tree's root after each golden block, a digest of every receipt's
// (OK, Err, Output), and each distinct revert string, as they were
// before the chaincodes built their keys in stack buffers and named
// their fixed revert reasons as package-level errors.
func TestNativeGolden(t *testing.T) {
	var names []string
	for _, spec := range contracts.All() {
		if spec.Chaincode != nil {
			names = append(names, spec.Name)
		}
	}
	eng, err := NewNativeEngine(names...)
	if err != nil {
		t.Fatal(err)
	}
	db := newBucketDB(t)
	var roots []string
	sum := sha256.New()
	errs := map[string]bool{}
	for n, block := range goldenBlocks() {
		for _, tx := range block {
			r := eng.Execute(db, tx, uint64(n+1))
			fmt.Fprintf(sum, "%t %q %x\n", r.OK, r.Err, r.Output)
			if r.Err != "" {
				errs[r.Err] = true
			}
		}
		root, err := db.Commit()
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, hex.EncodeToString(root[:]))
	}
	gotErrs := make([]string, 0, len(errs))
	for e := range errs {
		gotErrs = append(gotErrs, e)
	}
	slices.Sort(gotErrs)
	if !slices.Equal(roots, goldenRoots) {
		t.Errorf("roots\n got %q\nwant %q", roots, goldenRoots)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenReceipts {
		t.Errorf("receipt digest %s, want %s", got, goldenReceipts)
	}
	if !slices.Equal(gotErrs, goldenErrs) {
		t.Errorf("revert strings\n got %q\nwant %q", gotErrs, goldenErrs)
	}
}

// Captured before the chaincodes' stack buffers and revert sentinels.
var (
	goldenRoots = []string{
		"2ac7227fbe35c09f3fc76b5d5264d8d3a5781cbe7d02d877ef0efc9dcb1798d5",
		"492ee2b64f6b81a48e00d10ce3ffc4f449fb888dce5ba3e6462daa53e5fa703e",
		"a50fb329470eb1cbf530931c052449469fc6dfc1485c2a58e4c51f6fa8860bd9",
		"3b31daf48ca97baac4daafd9654fc2c9fffc95a8ba50983d375307ea789c23bb",
		"f962a84675fed93be9625786063ca4596adbd6baf94a7b607d7212e58716bf5f",
		"24dbfebfbfe3cb515b57fc785eb92e47d96b73ea632b60479ef7f145451f3a57",
		"c522966e49bd18e55e37edbf9f5ed2d9ef8a77e8d13a47e16da63deaec88d91f",
	}
	goldenReceipts = "5488f6e1ad773995b0a12e89ee8427f937e7383639f5bd17a180fd9510e4f80a"
	goldenErrs     = []string{
		"chaincode: invocation reverted: domain taken",
		"chaincode: invocation reverted: insufficient balance",
		"chaincode: invocation reverted: insufficient checking balance",
		"chaincode: invocation reverted: insufficient funds",
		`chaincode: invocation reverted: missing key "user0000000002"`,
		"chaincode: invocation reverted: no such domain",
		"chaincode: invocation reverted: no such sale",
		"chaincode: invocation reverted: not the owner",
		"chaincode: invocation reverted: sale exists",
		"chaincode: method not found",
	}
)

// TestChaincodeAllocBudget bounds what a block of Smallbank ops
// allocates per transaction, executed natively on a bucket tree over
// Mem and committed: the stub, each write's [key | value] record, the
// overlay and journal, the store's records and the tree's digests —
// 5.5 per transaction. It was 10.1 while each chaincode key was built
// on the heap (8.6 with only that back) and each write-set key was
// copied for the tree at commit (6.5 with only that back).
func TestChaincodeAllocBudget(t *testing.T) {
	eng, err := NewNativeEngine("smallbank")
	if err != nil {
		t.Fatal(err)
	}
	db := newBucketDB(t)
	const accounts = 256
	for i := range accounts {
		for _, m := range []string{"depositChecking", "transactSavings"} {
			tx := &types.Transaction{Contract: "smallbank", Method: m,
				Args: [][]byte{types.U64Bytes(uint64(i)), types.U64Bytes(1 << 20)}}
			if r := eng.Execute(db, tx, 0); !r.OK {
				t.Fatal(r.Err)
			}
		}
	}
	if _, err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const perBlock = 100
	receipts := types.NewReceipts(perBlock)
	const runs = 9
	var allocs [runs]float64
	for run := -1; run < runs; run++ { // the first block grows the scratch
		block := smallbankBlock(rng, perBlock)
		for _, tx := range block {
			tx.Args[0][7] = byte(rng.Intn(accounts)) // spread over the funded accounts
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, tx := range block {
			eng.ExecuteInto(db, tx, 1, receipts[i])
		}
		if _, err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if run >= 0 {
			allocs[run] = float64(after.Mallocs-before.Mallocs) / perBlock
		}
	}
	slices.Sort(allocs[:])
	got := allocs[runs/2]
	t.Logf("%.2f allocations per transaction", got)
	const budget = 6.0
	if got > budget {
		t.Errorf("%.2f allocations per transaction, budget %.2f", got, budget)
	}
}
