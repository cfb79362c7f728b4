package crypto

import (
	"testing"

	"blockbench/internal/types"
)

// Transaction signing and verification costs drive two of the paper's
// findings: Parity's server-side signing bottleneck and the per-node
// verification load at high rates.

func BenchmarkSignTx(b *testing.B) {
	k := DeterministicKey(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := &types.Transaction{Nonce: uint64(i), Contract: "ycsb",
			Method: "write", GasLimit: 100_000}
		if err := SignTx(tx, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyTx(b *testing.B) {
	k := DeterministicKey(1)
	reg := NewRegistry()
	reg.Add(k)
	txs := make([]*types.Transaction, 256)
	for i := range txs {
		txs[i] = &types.Transaction{Nonce: uint64(i), GasLimit: 1}
		if err := SignTx(txs[i], k); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !reg.VerifyTx(txs[i%len(txs)]) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkVerifyBlockCold is the commit-time check of a block no pool
// has seen (preload, chain sync, journal replay): 400 transactions, all
// misses, fanned out over GOMAXPROCS. us/tx is the number to read.
func BenchmarkVerifyBlockCold(b *testing.B) {
	k := DeterministicKey(1)
	txs := signedTxs(b, k, 400)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg := NewRegistry()
		reg.Add(k)
		b.StartTimer()
		if bad := reg.VerifyTxs(txs); bad >= 0 {
			b.Fatalf("tx %d failed", bad)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(txs)), "us/tx")
}
