// Contention benchmarks for the pool (the retired 16-shard variant's
// last numbers are in EXPERIMENTS.md). Each benchmark
// iteration runs a fixed node-shaped workload — N adder goroutines on
// the ingestion path racing one block producer's Batch+MarkIncluded
// cycle over a deep standing pool — and reports transactions per
// second, so even the CI smoke run (-benchtime 1x) records comparable
// throughput numbers in BENCH_ci.json.
package txpool

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"blockbench/internal/types"
)

const (
	benchTxsPerG  = 4096  // transactions each adder goroutine admits
	benchBacklog  = 32768 // standing pending transactions at start
	benchBlockTxs = 256   // batch size of the block-producer cycle
)

func benchTx(id uint64) *types.Transaction {
	var arg [8]byte
	binary.BigEndian.PutUint64(arg[:], id)
	tx := &types.Transaction{Nonce: id, Contract: "bench", Method: "op",
		Args: [][]byte{arg[:]}, GasLimit: 100}
	tx.Hash() // pin the cached hash outside the timed section
	return tx
}

func benchTxSets(goroutines int) ([][]*types.Transaction, []*types.Transaction) {
	sets := make([][]*types.Transaction, goroutines)
	id := uint64(1)
	for g := range sets {
		sets[g] = make([]*types.Transaction, benchTxsPerG)
		for i := range sets[g] {
			sets[g][i] = benchTx(id)
			id++
		}
	}
	backlog := make([]*types.Transaction, benchBacklog)
	for i := range backlog {
		backlog[i] = benchTx(1<<32 + uint64(i))
	}
	return sets, backlog
}

// runContention drives one iteration of the node-shaped workload —
// len(sets) adder goroutines racing the ingestion path while one block
// producer cycles Batch+MarkIncluded until the pool drains, all over a
// deep standing backlog — and returns the number of transactions that
// passed through the pool.
func runContention(p *Pool, sets [][]*types.Transaction, backlog []*types.Transaction) int {
	for _, tx := range backlog {
		p.Add(tx)
	}
	var wg sync.WaitGroup
	addersDone := make(chan struct{})
	for _, txs := range sets {
		wg.Add(1)
		go func(txs []*types.Transaction) {
			defer wg.Done()
			for _, tx := range txs {
				p.Add(tx)
			}
		}(txs)
	}
	go func() {
		wg.Wait()
		close(addersDone)
	}()
	done := false
	for {
		b := p.Batch(benchBlockTxs, 0)
		if len(b) > 0 {
			p.MarkIncluded(b)
		} else if done {
			break
		} else {
			runtime.Gosched()
		}
		select {
		case <-addersDone:
			done = true
		default:
		}
	}
	return len(backlog) + len(sets)*benchTxsPerG
}

func benchContention(b *testing.B, goroutines int) {
	sets, backlog := benchTxSets(goroutines)
	b.ResetTimer()
	txs := 0
	for i := 0; i < b.N; i++ {
		txs += runContention(New(0), sets, backlog)
	}
	b.ReportMetric(float64(txs)/b.Elapsed().Seconds(), "tx/s")
}

func BenchmarkPoolContention8(b *testing.B) { benchContention(b, 8) }

func BenchmarkPoolContention16(b *testing.B) { benchContention(b, 16) }

// TestPoolConsistentUnderContention: after the concurrent workload the
// pool must end consistent, with every admitted transaction either
// included or still pending exactly once.
func TestPoolConsistentUnderContention(t *testing.T) {
	sets, backlog := benchTxSets(4)
	p := New(0)
	runContention(p, sets, backlog)
	seen := make(map[types.Hash]int)
	for _, tx := range p.Batch(0, 0) {
		seen[tx.Hash()]++
		if seen[tx.Hash()] > 1 {
			t.Fatal("duplicate pending transaction")
		}
	}
	if p.Len() != len(seen) {
		t.Fatalf("Len=%d but Batch returned %d", p.Len(), len(seen))
	}
}
