package parallel

import (
	"fmt"
	"reflect"
	"testing"

	"blockbench/internal/bmt"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// engineCase pairs an engine with the state organization its presets
// use: EVM over the trie (geth lineage), native chaincode over the
// bucket tree (Fabric lineage).
type engineCase struct {
	name   string
	engine exec.Engine
	newDB  func(t *testing.T) *state.DB
}

func engineCases(t *testing.T) []engineCase {
	t.Helper()
	evm, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb", "smallbank")
	if err != nil {
		t.Fatal(err)
	}
	native, err := exec.NewNativeEngine("ycsb", "smallbank")
	if err != nil {
		t.Fatal(err)
	}
	return []engineCase{
		{"evm", evm, func(t *testing.T) *state.DB {
			t.Helper()
			b, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
			if err != nil {
				t.Fatal(err)
			}
			return state.NewDB(b)
		}},
		{"native", native, func(t *testing.T) *state.DB {
			t.Helper()
			b, err := state.NewBucketBackend(kvstore.NewMem(), bmt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return state.NewDB(b)
		}},
	}
}

// testGasLimit mirrors the driver's DefaultGasLimit.
const testGasLimit = 500_000

func sbAcct(i int) []byte { return types.U64Bytes(uint64(i)) }

func amt(n uint64) []byte { return types.U64Bytes(n) }

// adversarialBlock builds a block with heavy key overlap: smallbank
// ops cycling over a handful of hot accounts interleaved with YCSB
// writes hammering a few hot rows. Nearly every transaction reads what
// some earlier transaction wrote, which is the worst case for
// optimistic execution — exactly what the determinism test wants.
func adversarialBlock(n int) []*types.Transaction {
	const hot = 8
	txs := make([]*types.Transaction, 0, n)
	// Seed balances first so the contended ops have funds to move.
	for i := 0; i < hot && len(txs) < n; i++ {
		txs = append(txs, &types.Transaction{Nonce: uint64(len(txs)),
			Contract: "smallbank", Method: "depositChecking",
			Args: [][]byte{sbAcct(i), amt(10_000)}, GasLimit: testGasLimit})
	}
	rng := uint64(42)
	next := func(m uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return (rng >> 33) % m }
	for len(txs) < n {
		var tx *types.Transaction
		switch next(4) {
		case 0:
			a, b := int(next(hot)), int(next(hot))
			tx = &types.Transaction{Contract: "smallbank", Method: "sendPayment",
				Args: [][]byte{sbAcct(a), sbAcct(b), amt(1 + next(50))}}
		case 1:
			tx = &types.Transaction{Contract: "smallbank", Method: "transactSavings",
				Args: [][]byte{sbAcct(int(next(hot))), amt(1 + next(50))}}
		case 2:
			tx = &types.Transaction{Contract: "smallbank", Method: "amalgamate",
				Args: [][]byte{sbAcct(int(next(hot))), sbAcct(int(next(hot)))}}
		default:
			k := []byte(fmt.Sprintf("hotrow%d", next(3)))
			tx = &types.Transaction{Contract: "ycsb", Method: "write",
				Args: [][]byte{k, amt(next(1000))}}
		}
		tx.Nonce = uint64(len(txs))
		tx.GasLimit = testGasLimit
		txs = append(txs, tx)
	}
	return txs
}

// disjointBlock builds a block where every transaction touches its own
// key: zero read/write overlap, so optimistic execution must commit
// the whole block without a single conflict.
func disjointBlock(n int) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{Nonce: uint64(i),
			Contract: "ycsb", Method: "write",
			Args:     [][]byte{[]byte(fmt.Sprintf("user%010d", i)), amt(uint64(i))},
			GasLimit: testGasLimit}
	}
	return txs
}

// TestParallelMatchesSerial is the determinism contract: the same
// block executed serially and through the parallel executor (workers=8,
// adversarial key overlap) must produce byte-identical receipts and an
// identical committed state root, on both engines. Run under -race this
// also exercises the MVStore's concurrency claims.
func TestParallelMatchesSerial(t *testing.T) {
	const blockTxs = 96
	for _, ec := range engineCases(t) {
		t.Run(ec.name, func(t *testing.T) {
			txs := adversarialBlock(blockTxs)

			serialDB := ec.newDB(t)
			serialReceipts := make([]*types.Receipt, len(txs))
			for i, tx := range txs {
				serialReceipts[i] = ec.engine.Execute(serialDB, tx, 7)
			}
			serialRoot, err := serialDB.Commit()
			if err != nil {
				t.Fatal(err)
			}

			parDB := ec.newDB(t)
			ex := New(8)
			parReceipts := ex.ExecuteBlock(ec.engine, parDB, txs, 7)
			parRoot, err := parDB.Commit()
			if err != nil {
				t.Fatal(err)
			}

			if parRoot != serialRoot {
				t.Fatalf("state roots diverge: serial %x, parallel %x", serialRoot, parRoot)
			}
			if len(parReceipts) != len(serialReceipts) {
				t.Fatalf("receipt count: serial %d, parallel %d", len(serialReceipts), len(parReceipts))
			}
			for i := range serialReceipts {
				if !reflect.DeepEqual(serialReceipts[i], parReceipts[i]) {
					t.Fatalf("receipt %d diverges:\nserial:   %+v\nparallel: %+v",
						i, serialReceipts[i], parReceipts[i])
				}
			}

			c := ex.Counters()
			if c["exec.parallel.txs"] != blockTxs {
				t.Fatalf("txs counter = %d, want %d", c["exec.parallel.txs"], blockTxs)
			}
			if c["exec.parallel.workers"] != 8 {
				t.Fatalf("workers counter = %d, want 8", c["exec.parallel.workers"])
			}
		})
	}
}

// TestDisjointBlockNoConflicts: with no key overlap, optimistic
// execution must be conflict-free — validation never fails and nothing
// re-executes.
func TestDisjointBlockNoConflicts(t *testing.T) {
	for _, ec := range engineCases(t) {
		t.Run(ec.name, func(t *testing.T) {
			txs := disjointBlock(64)

			serialDB := ec.newDB(t)
			for _, tx := range txs {
				ec.engine.Execute(serialDB, tx, 3)
			}
			serialRoot, err := serialDB.Commit()
			if err != nil {
				t.Fatal(err)
			}

			parDB := ec.newDB(t)
			ex := New(8)
			ex.ExecuteBlock(ec.engine, parDB, txs, 3)
			parRoot, err := parDB.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if parRoot != serialRoot {
				t.Fatalf("state roots diverge: serial %x, parallel %x", serialRoot, parRoot)
			}

			c := ex.Counters()
			if c["exec.parallel.conflicts"] != 0 || c["exec.parallel.reexecs"] != 0 {
				t.Fatalf("disjoint block reported conflicts=%d reexecs=%d, want 0/0",
					c["exec.parallel.conflicts"], c["exec.parallel.reexecs"])
			}
			if c["exec.parallel.txs"] != 64 {
				t.Fatalf("txs counter = %d, want 64", c["exec.parallel.txs"])
			}
		})
	}
}

// TestConflictCounterConservation: every validation failure schedules
// exactly one re-execution, so the two counters move in lockstep; on a
// contended block they must be non-zero (the adversarial mix cannot be
// conflict-free at 8 workers... unless rounds degenerate to singletons,
// so assert conservation, not a specific count).
func TestConflictCounterConservation(t *testing.T) {
	ec := engineCases(t)[1] // native engine: cheapest execution, most overlap pressure
	txs := adversarialBlock(96)
	parDB := ec.newDB(t)
	ex := New(8)
	ex.ExecuteBlock(ec.engine, parDB, txs, 1)
	c := ex.Counters()
	if c["exec.parallel.conflicts"] != c["exec.parallel.reexecs"] {
		t.Fatalf("conflicts=%d reexecs=%d: every conflict must schedule exactly one re-execution",
			c["exec.parallel.conflicts"], c["exec.parallel.reexecs"])
	}
	if c["exec.parallel.txs"] != 96 {
		t.Fatalf("txs counter = %d, want 96", c["exec.parallel.txs"])
	}
}

// TestWorkerClamp: worker counts below 1 clamp to the serial path
// rather than deadlocking an empty pool.
func TestWorkerClamp(t *testing.T) {
	for _, w := range []int{0, -3} {
		if got := New(w).Counters()["exec.parallel.workers"]; got != 1 {
			t.Fatalf("New(%d) has %d workers, want 1", w, got)
		}
	}
}

// TestSerialExecutorPath: workers=1 runs the plain serial loop but
// still counts transactions, so the counter family is live on every
// preset that wires an executor.
func TestSerialExecutorPath(t *testing.T) {
	ec := engineCases(t)[0]
	txs := disjointBlock(8)
	db := ec.newDB(t)
	ex := New(1)
	receipts := ex.ExecuteBlock(ec.engine, db, txs, 2)
	for i, r := range receipts {
		if r == nil || !r.OK {
			t.Fatalf("receipt %d: %+v", i, r)
		}
	}
	c := ex.Counters()
	if c["exec.parallel.txs"] != 8 || c["exec.parallel.workers"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

// TestParallelLSMFlatMatchesMemTrie is the storage-stack determinism
// contract from the other side: the same blocks executed at workers=4
// through the flat-fronted trie over the LSM engine must commit the
// same roots as serial execution over a plain in-memory trie.
func TestParallelLSMFlatMatchesMemTrie(t *testing.T) {
	evm, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb", "smallbank")
	if err != nil {
		t.Fatal(err)
	}

	memB, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	memDB := state.NewDB(memB)

	lsmStore, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{MemTableBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer lsmStore.Close()
	flat := state.NewFlatState(lsmStore, 1024)
	cache := state.NewSharedCache(512)
	lsmRoot := types.ZeroHash

	for block := uint64(1); block <= 3; block++ {
		txs := adversarialBlock(48)

		for _, tx := range txs {
			evm.Execute(memDB, tx, block)
		}
		serialRoot, err := memDB.Commit()
		if err != nil {
			t.Fatal(err)
		}

		fb, err := state.NewTrieBackendShared(lsmStore, lsmRoot, cache, flat)
		if err != nil {
			t.Fatal(err)
		}
		lsmDB := state.NewDB(fb)
		ex := New(4)
		ex.ExecuteBlock(evm, lsmDB, txs, block)
		lsmRoot, err = lsmDB.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if lsmRoot != serialRoot {
			t.Fatalf("block %d: lsm/flat workers=4 root %x diverges from mem/trie serial %x",
				block, lsmRoot, serialRoot)
		}
	}
	if c := flat.Counters(); c["store.flat_hits"] == 0 {
		t.Fatal("flat layer never served a read during parallel execution")
	}
}
