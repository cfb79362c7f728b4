// Package parallel executes a block's transactions optimistically
// across a worker pool (Block-STM style) while reproducing the serial
// outcome byte for byte. Transactions are dispatched to workers in
// sequence order and executed speculatively against versioned state
// reads (state.MVStore / state.TxView: every read records the version
// it observed). At a round barrier a validation pass walks the block
// in sequence order: a transaction whose reads still resolve to the
// same versions — and whose whole prefix is already committed — has
// seen exactly the state a serial execution would have given it, so
// its receipt and write set are final; a transaction whose reads were
// invalidated by an earlier-sequenced writer re-executes. Workloads
// with disjoint write sets (YCSB) commit a whole block per round and
// scale with the worker count; contended workloads (Smallbank's hot
// accounts) pay re-executions and degrade toward the serial curve —
// the conflict-bound regime the exec-scaling benchmark charts.
package parallel

import (
	"sync"
	"sync/atomic"

	"blockbench/internal/exec"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// Executor schedules intra-block parallel execution. One Executor
// serves one node's ledger; its counters feed the generic
// metrics.CounterProvider plumbing. Safe for use from one block
// execution at a time (the ledger serializes block application).
type Executor struct {
	workers int

	txs       atomic.Uint64 // transactions executed through the executor
	conflicts atomic.Uint64 // validation failures (stale versioned reads)
	reexecs   atomic.Uint64 // re-executions scheduled by failed validation
}

// New creates an executor with the given worker count. Counts below 1
// are clamped to 1 (the serial path).
func New(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	return &Executor{workers: workers}
}

// Counters implements metrics.CounterProvider. exec.parallel.workers
// is the configured pool size (constant, so still monotonic); summed
// across a cluster it reads as nodes × workers.
func (e *Executor) Counters() map[string]uint64 {
	return map[string]uint64{
		"exec.parallel.txs":       e.txs.Load(),
		"exec.parallel.conflicts": e.conflicts.Load(),
		"exec.parallel.reexecs":   e.reexecs.Load(),
		"exec.parallel.workers":   uint64(e.workers),
	}
}

// ExecuteBlock applies txs to db in block blockNum, returning one
// receipt per transaction in order. The outcome — receipts and the
// final content of db's overlay — is byte-identical to executing the
// transactions serially with eng.Execute.
func (e *Executor) ExecuteBlock(eng exec.Engine, db *state.DB, txs []*types.Transaction, blockNum uint64) []*types.Receipt {
	n := len(txs)
	e.txs.Add(uint64(n))
	receipts := types.NewReceipts(n)
	if e.workers <= 1 || n <= 1 {
		for i, tx := range txs {
			eng.ExecuteInto(db, tx, blockNum, receipts[i])
		}
		return receipts
	}

	mv := state.NewMVStore(db)
	views := make([]*state.TxView, n)

	pending := make([]int, n) // uncommitted tx indices, ascending
	for i := range pending {
		pending[i] = i
	}
	needExec := pending // txs whose current speculation is missing/stale

	for len(pending) > 0 {
		// Execution phase: dispatch in sequence order to the pool. The
		// MVStore is frozen here — commits only happen at the barrier —
		// so every speculation in a round reads one consistent snapshot.
		jobs := make(chan int)
		var wg sync.WaitGroup
		workers := e.workers
		if workers > len(needExec) {
			workers = len(needExec)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range jobs {
					txdb := state.NewDB(views[idx])
					eng.ExecuteInto(txdb, txs[idx], blockNum, receipts[idx])
					// Hand the speculation's overlay to the view as its
					// private write set (failed executions were already
					// reverted and hand over nothing, as on the serial path).
					txdb.Commit()
				}
			}()
		}
		for _, idx := range needExec {
			if views[idx] == nil {
				views[idx] = state.NewTxView(mv, idx)
			} else {
				views[idx].Reset()
			}
			jobs <- idx
		}
		close(jobs)
		wg.Wait()

		// Validation barrier: walk uncommitted transactions in sequence
		// order. Commits are final, so a transaction only commits while
		// its entire prefix is committed; past the first hold-back,
		// valid speculations are kept for re-validation next round and
		// stale ones are scheduled for re-execution alongside it.
		var nextPending, nextExec []int
		blocked := false
		for _, idx := range pending {
			valid := e.validate(mv, views[idx])
			if valid && !blocked {
				mv.Commit(idx, views[idx].Writes())
				continue
			}
			if !valid {
				e.conflicts.Add(1)
				e.reexecs.Add(1)
				nextExec = append(nextExec, idx)
			}
			blocked = true
			nextPending = append(nextPending, idx)
		}
		pending, needExec = nextPending, nextExec
	}

	mv.ApplyTo(db)
	return receipts
}

// validate re-resolves a speculation's recorded reads against the
// current committed state. Version equality implies value equality
// (committed write sets are never replaced), so a fully matching read
// set means the execution already produced the serial outcome.
func (e *Executor) validate(mv *state.MVStore, v *state.TxView) bool {
	for _, r := range v.Reads() {
		if _, ver := mv.Read(r.Key, v.Tx()); ver != r.Version {
			return false
		}
	}
	return true
}
