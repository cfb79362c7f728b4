package exec

import (
	"runtime"
	"slices"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

func newDB(t *testing.T) *state.DB {
	t.Helper()
	b, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	return state.NewDB(b)
}

func engines(t *testing.T) map[string]Engine {
	t.Helper()
	evm, err := NewEVMEngine(MemModel{}, "ycsb", "donothing")
	if err != nil {
		t.Fatal(err)
	}
	native, err := NewNativeEngine("ycsb", "donothing")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Engine{"evm": evm, "native": native}
}

func TestExecuteWriteAndQuery(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			db := newDB(t)
			tx := &types.Transaction{Contract: "ycsb", Method: "write",
				Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
			r := eng.Execute(db, tx, 1)
			if !r.OK {
				t.Fatalf("receipt: %+v", r)
			}
			if r.TxHash != tx.Hash() {
				t.Fatal("receipt metadata wrong")
			}
			out, err := eng.Query(db, "ycsb", "read", [][]byte{[]byte("k")})
			if err != nil || string(out) != "v" {
				t.Fatalf("query = %q, %v", out, err)
			}
		})
	}
}

func TestFailedExecutionRollsBack(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			db := newDB(t)
			// read of a missing key reverts on both engines.
			tx := &types.Transaction{Contract: "ycsb", Method: "read",
				Args: [][]byte{[]byte("missing")}, GasLimit: 100_000}
			r := eng.Execute(db, tx, 1)
			if r.OK {
				t.Fatal("reverting tx reported OK")
			}
			if r.Err == "" {
				t.Fatal("no error recorded")
			}
		})
	}
}

func TestUnknownContract(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			db := newDB(t)
			tx := &types.Transaction{Contract: "nope", Method: "x", GasLimit: 100_000}
			if r := eng.Execute(db, tx, 1); r.OK {
				t.Fatal("unknown contract executed")
			}
			if _, err := eng.Query(db, "nope", "x", nil); err == nil {
				t.Fatal("unknown contract queried")
			}
		})
	}
}

func TestEVMValueTransfer(t *testing.T) {
	eng, err := NewEVMEngine(MemModel{})
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	alice := types.BytesToAddress([]byte("alice"))
	bob := types.BytesToAddress([]byte("bob"))
	db.SetBalance(alice, 100)
	tx := &types.Transaction{From: alice, To: bob, Value: 30, GasLimit: 100_000}
	if r := eng.Execute(db, tx, 1); !r.OK {
		t.Fatalf("transfer failed: %s", r.Err)
	}
	if db.GetBalance(bob) != 30 || db.GetBalance(alice) != 70 {
		t.Fatal("balances wrong")
	}
	// Overdraft fails and rolls back.
	tx2 := &types.Transaction{From: alice, To: bob, Value: 1000, GasLimit: 100_000, Nonce: 1}
	if r := eng.Execute(db, tx2, 2); r.OK {
		t.Fatal("overdraft transfer succeeded")
	}
	if db.GetBalance(alice) != 70 {
		t.Fatal("overdraft mutated state")
	}
}

func TestEVMIntrinsicGas(t *testing.T) {
	eng, err := NewEVMEngine(MemModel{}, "donothing")
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	// Below intrinsic gas: rejected.
	tx := &types.Transaction{Contract: "donothing", Method: "invoke", GasLimit: 100}
	if r := eng.Execute(db, tx, 1); r.OK {
		t.Fatal("tx below intrinsic gas executed")
	}
	tx2 := &types.Transaction{Contract: "donothing", Method: "invoke", GasLimit: 30_000, Nonce: 1}
	r := eng.Execute(db, tx2, 1)
	if !r.OK {
		t.Fatalf("donothing failed: %s", r.Err)
	}
	if r.GasUsed < 21_000 {
		t.Fatalf("gas used %d below intrinsic", r.GasUsed)
	}
}

func TestQueryDoesNotMutate(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			db := newDB(t)
			// YCSB "read" is pure, but run a write through Query on the
			// native engine's Invoke path is not possible — instead
			// verify roots are stable across queries.
			tx := &types.Transaction{Contract: "ycsb", Method: "write",
				Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
			eng.Execute(db, tx, 1)
			r1, err := db.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Query(db, "ycsb", "read", [][]byte{[]byte("k")}); err != nil {
				t.Fatal(err)
			}
			r2, err := db.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if r1 != r2 {
				t.Fatalf("%s: query mutated state", name)
			}
		})
	}
}

func TestEVMEngineCounters(t *testing.T) {
	eng, err := NewEVMEngine(MemModel{Base: 1 << 20, Factor: 2}, "ycsb")
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	tx := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
	eng.Execute(db, tx, 1)
	if eng.Counters()["exec.steps"] == 0 {
		t.Fatal("no steps counted")
	}
	if eng.Counters()["exec.time_ns"] == 0 {
		t.Fatal("no exec time")
	}
	if eng.PeakMem() < 1<<20 {
		t.Fatalf("peak mem %d below base", eng.PeakMem())
	}
	if len(eng.Contracts()) != 1 {
		t.Fatal("contracts list wrong")
	}
}

// TestExecAllocBudget is the execution layer's allocation budget, beside
// the data-model layer's TestBlockAllocBudget: EVMEngine.Execute at
// steady state (the machine pool is warm, as on a node that has executed
// a block) for the two transactions the benchmark's EVM workloads are
// made of. Before the interpreter stopped paying for its own memory a
// cpuheavy sort of 300 integers cost 87 allocations and 191 KB here —
// one make+copy of the whole memory per 32-byte word of growth — and a
// ycsb write 9 and 3.2 KB; they measure 2 and 176 B (the receipt, the
// output) and 3 and 304 B (plus what state.DB keeps of the write). The
// budget is a few objects above that, and the byte bounds are ones a
// single regrowth of either memory (3.5 KB, 1.1 KB) would break.
func TestExecAllocBudget(t *testing.T) {
	eng, err := NewEVMEngine(MemModel{}, "ycsb", "cpuheavy")
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t)
	sort := &types.Transaction{Contract: "cpuheavy", Method: "sort",
		Args: [][]byte{types.U64Bytes(300)}, GasLimit: 10_000_000}
	write := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{make([]byte, 20), make([]byte, 100)}, GasLimit: 100_000}
	for _, c := range []struct {
		name   string
		tx     *types.Transaction
		allocs uint64
		bytes  uint64
	}{
		{"cpuheavy sort n=300", sort, 5, 1024},
		{"ycsb write", write, 6, 1024},
	} {
		exec := func() {
			if r := eng.Execute(db, c.tx, 1); !r.OK {
				t.Fatalf("%s: %s", c.name, r.Err)
			}
		}
		// Medians over single calls rather than testing.AllocsPerRun's
		// mean: under the race detector sync.Pool drops a quarter of what
		// it is given on purpose, and those calls build a new machine.
		const runs = 51
		var allocs, bytes [runs]uint64
		for i := -1; i < runs; i++ { // the first call warms the pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			exec()
			runtime.ReadMemStats(&after)
			if i >= 0 {
				allocs[i], bytes[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			}
		}
		slices.Sort(allocs[:])
		slices.Sort(bytes[:])
		t.Logf("%s: %d allocations, %d bytes per Execute", c.name, allocs[runs/2], bytes[runs/2])
		if allocs[runs/2] > c.allocs || bytes[runs/2] > c.bytes {
			t.Errorf("%s: %d allocations and %d bytes per Execute, budget %d and %d",
				c.name, allocs[runs/2], bytes[runs/2], c.allocs, c.bytes)
		}
	}
}
