package evm_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"blockbench/internal/contracts"
	"blockbench/internal/evm"
	"blockbench/internal/evm/asm"
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

// TestConcurrentFirstRunsMatchSerial is the same check for Programs that
// have never run. A Program decodes its code on its first Run, so each
// round builds a fresh set — every registry contract's code in a new
// Program, the ad-hoc and fused-run programs assembled again, seeded
// random programs — and 8 goroutines released at once make the first
// Run of each. Every row must equal the serial run's on a set of its
// own. Under -race this is the check that the table is built once and
// every goroutine reads it whole.
func TestConcurrentFirstRunsMatchSerial(t *testing.T) {
	alice := goldenAddr("alice")
	env := evm.Env{
		ContractAddr: goldenAddr("contract:adhoc"), Caller: alice, Value: 9,
		Args: [][]byte{u64(60), u64(61), u64(62)},
	}
	type job struct {
		method string
		gas    uint64
		build  func() *evm.Program // a Program that has never run
	}
	var jobs []job
	for _, spec := range contracts.All() {
		if spec.EVM == nil {
			continue
		}
		code, funcs := spec.EVM.Code, spec.EVM.Funcs
		methods := make([]string, 0, len(funcs))
		for m := range funcs {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		for _, m := range methods {
			jobs = append(jobs, job{m, 1 << 30, func() *evm.Program { return &evm.Program{Code: bytes.Clone(code), Funcs: funcs} }})
		}
	}
	var srcs []string
	for _, p := range adhocPrograms {
		srcs = append(srcs, p.src)
	}
	for _, p := range fusedEdges() {
		srcs = append(srcs, p.src)
	}
	for _, src := range srcs {
		jobs = append(jobs, job{"main", 100000, func() *evm.Program { return asm.MustAssemble(".func main\n" + src) }})
	}
	for seed := int64(0); seed < 40; seed++ {
		jobs = append(jobs, job{"main", 8000, func() *evm.Program { return randomProgram(rand.New(rand.NewSource(seed))) }})
	}
	run := func(j job, prog *evm.Program) string {
		var rows []string
		g := &goldenRun{st: newTraceState(), rows: &rows}
		g.st.bal[env.ContractAddr] = 50
		e := env
		e.Contract, e.GasLimit = "c", j.gas
		g.call(j.method, prog, j.method, e)
		return rows[0]
	}
	serial := make([]string, len(jobs))
	for i, j := range jobs {
		serial[i] = run(j, j.build())
	}

	for round := 0; round < 3; round++ {
		progs := make([]*evm.Program, len(jobs))
		for i, j := range jobs {
			progs[i] = j.build()
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i, j := range jobs { // all in one order, so every first Run is contended
					if got := run(j, progs[i]); got != serial[i] {
						t.Errorf("round %d, goroutine %d, job %d:\n got  %s\n want %s", round, w, i, got, serial[i])
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}
