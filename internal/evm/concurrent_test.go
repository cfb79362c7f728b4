package evm_test

import (
	"fmt"
	"sync"
	"testing"

	"blockbench/internal/evm"
)

// TestConcurrentRunsMatchSerial runs a mix of contracts — small and large
// memories, storage traffic, a revert, an out-of-gas and a MemCap trap —
// through evm.Run from 8 goroutines at once, each in its own order, and
// compares every row with the serial run's. Machines come from a shared
// pool, so under -race this is the check that a pooled machine is never
// in two hands and carries nothing from one caller's run into another's.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	alice := goldenAddr("alice")
	val := make([]byte, 100)
	type job func(g *goldenRun)
	var jobs []job
	for i := 0; i < 6; i++ {
		n, key := uint64(20+60*i), []byte(fmt.Sprintf("user%016d", i))
		jobs = append(jobs,
			func(g *goldenRun) { g.invoke("sort", "cpuheavy", "sort", alice, 0, evm.Env{}, u64(n)) },
			func(g *goldenRun) {
				g.invoke("write", "ycsb", "write", alice, 0, evm.Env{}, key, val)
				g.invoke("read", "ycsb", "read", alice, 0, evm.Env{}, key)
				g.invoke("miss", "ycsb", "read", alice, 0, evm.Env{}, []byte("nope"))
			},
			func(g *goldenRun) {
				g.invoke("deposit", "smallbank", "depositChecking", alice, 0, evm.Env{}, u64(n), u64(100))
				g.invoke("pay", "smallbank", "sendPayment", alice, 0, evm.Env{}, u64(n), u64(n+1), u64(30))
				g.invoke("balance", "smallbank", "getBalance", alice, 0, evm.Env{}, u64(n+1))
			},
			func(g *goldenRun) {
				g.invoke("iowrite", "ioheavy", "write", alice, 0, evm.Env{}, u64(10+n/10), u64(n))
				g.invoke("ioread", "ioheavy", "read", alice, 0, evm.Env{}, u64(10+n/10), u64(n))
			},
			func(g *goldenRun) {
				g.invoke("oog", "cpuheavy", "sort", alice, 0, evm.Env{GasLimit: 500 * (n + 1)}, u64(300))
			},
			func(g *goldenRun) {
				g.invoke("oom", "cpuheavy", "sort", alice, 0, evm.Env{MemBase: 1000, MemFactor: 10, MemCap: 20000 + int64(n)}, u64(300))
			},
		)
	}
	// Each job runs against a state of its own, so its rows depend on
	// nothing but the job.
	run := func(j job) []string {
		var rows []string
		j(&goldenRun{st: newTraceState(), rows: &rows, seen: map[string]bool{}})
		return rows
	}
	serial := make([][]string, len(jobs))
	for i, j := range jobs {
		serial[i] = run(j)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range jobs {
					i := (k + 5*w) % len(jobs) // every goroutine starts somewhere else
					if got := run(jobs[i]); fmt.Sprint(got) != fmt.Sprint(serial[i]) {
						t.Errorf("goroutine %d, job %d:\n got  %v\n want %v", w, i, got, serial[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
