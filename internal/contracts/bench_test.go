package contracts

import (
	"fmt"
	"math"
	"testing"
	"time"

	"blockbench/internal/chaincode"
	"blockbench/internal/evm"
	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

func benchState(b *testing.B) *state.DB {
	b.Helper()
	back, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		b.Fatal(err)
	}
	return state.NewDB(back)
}

// sortsPerOp is how many EVM sorts one BenchmarkEVMSort iteration runs,
// each after a native sort of nativeN integers. Its ms/sort is the
// fastest EVM sort, and ms/native-ms that time over the fastest native
// sort's. A shared host slows a process by up to 1.8x for a second or
// more at a time; it slows the two sorts together, if not equally, so
// the ratio is the figure the regression gate holds (cmd/benchcheck).
const sortsPerOp, nativeN = 20, 10_000

// BenchmarkEVMSort vs BenchmarkNativeSort is the execution-layer gap of
// Fig 11: the same quicksort interpreted under gas metering versus
// compiled Go. An iteration is sortsPerOp EVM and native sorts.
func BenchmarkEVMSort(b *testing.B) {
	for _, n := range []uint64{1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			spec, _ := Lookup("cpuheavy")
			db := benchState(b)
			stub := chaincode.NewStub(db, "cpuheavy", types.Address{}, 0)
			best, native := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for i := 0; i < b.N; i++ {
				for k := 0; k < sortsPerOp; k++ {
					start := time.Now()
					if _, err := spec.Chaincode.Invoke(stub, "sort", [][]byte{types.U64Bytes(nativeN)}); err != nil {
						b.Fatal(err)
					}
					native = min(native, time.Since(start))
					start = time.Now()
					res := evm.Run(spec.EVM, "sort", &evm.Env{
						State: db, Contract: "cpuheavy",
						Args: [][]byte{types.U64Bytes(n)}, GasLimit: 1 << 50,
					})
					best = min(best, time.Since(start))
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			b.ReportMetric(float64(best)/float64(time.Millisecond), "ms/sort")
			b.ReportMetric(float64(best)/float64(native), "ms/native-ms")
		})
	}
}

func BenchmarkNativeSort(b *testing.B) {
	for _, n := range []uint64{1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			spec, _ := Lookup("cpuheavy")
			db := benchState(b)
			stub := chaincode.NewStub(db, "cpuheavy", types.Address{}, 0)
			for i := 0; i < b.N; i++ {
				if _, err := spec.Chaincode.Invoke(stub, "sort",
					[][]byte{types.U64Bytes(n)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEVMYCSBWrite measures per-transaction execution cost of the
// macro workload's hot path.
func BenchmarkEVMYCSBWrite(b *testing.B) {
	spec, _ := Lookup("ycsb")
	db := benchState(b)
	key := make([]byte, 20)
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		res := evm.Run(spec.EVM, "write", &evm.Env{
			State: db, Contract: "ycsb",
			Args: [][]byte{key, val}, GasLimit: 1 << 30,
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func BenchmarkNativeYCSBWrite(b *testing.B) {
	spec, _ := Lookup("ycsb")
	db := benchState(b)
	stub := chaincode.NewStub(db, "ycsb", types.Address{}, 0)
	key := make([]byte, 20)
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		if _, err := spec.Chaincode.Invoke(stub, "write", [][]byte{key, val}); err != nil {
			b.Fatal(err)
		}
	}
}
