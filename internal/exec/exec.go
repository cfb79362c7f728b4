// Package exec provides the transaction execution engines that sit
// between the ledger and the contract runtimes: an EVM engine for the
// Ethereum/Parity presets and a native chaincode engine for the
// Hyperledger preset. Both apply the same transactional discipline —
// snapshot, execute, revert on failure — so a failed contract call never
// leaks partial writes into the world state.
package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"blockbench/internal/chaincode"
	"blockbench/internal/contracts"
	"blockbench/internal/evm"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// Engine executes transactions and read-only queries for one platform.
type Engine interface {
	// ExecuteInto applies tx to db as part of block blockNum and
	// overwrites *r with the outcome. State changes of failed
	// transactions are rolled back. The caller owns r, so a block's
	// receipts can share one allocation (types.NewReceipts).
	ExecuteInto(db *state.DB, tx *types.Transaction, blockNum uint64, r *types.Receipt)
	// Execute is ExecuteInto with a receipt of its own.
	Execute(db *state.DB, tx *types.Transaction, blockNum uint64) *types.Receipt
	// Query runs a read-only contract method against db.
	Query(db *state.DB, contract, method string, args [][]byte) ([]byte, error)
	// Contracts lists deployed contract names.
	Contracts() []string
}

// MemModel parameterizes the simulated resident footprint of contract
// execution (see evm.Env); the experiments use it to reproduce the
// paper's CPUHeavy memory measurements without terabyte allocations.
type MemModel struct {
	Base   int64 // fixed process overhead, bytes
	Factor int64 // simulated bytes per actual VM memory byte
	Cap    int64 // out-of-memory threshold, 0 = unlimited
}

// EVMEngine executes transactions through the gas-metered VM.
type EVMEngine struct {
	progs map[string]*evm.Program
	mem   MemModel

	peakMem  atomic.Int64
	execTime atomic.Int64 // cumulative ns spent executing
	steps    atomic.Uint64
}

// NewEVMEngine deploys the named contracts (from the Table 1 suite)
// and returns an engine using the given memory model.
func NewEVMEngine(mem MemModel, contractNames ...string) (*EVMEngine, error) {
	e := &EVMEngine{progs: make(map[string]*evm.Program), mem: mem}
	for _, name := range contractNames {
		spec, err := contracts.Lookup(name)
		if err != nil {
			return nil, err
		}
		if spec.EVM == nil {
			return nil, fmt.Errorf("exec: contract %q has no EVM implementation", name)
		}
		e.progs[name] = spec.EVM
	}
	return e, nil
}

// Contracts implements Engine.
func (e *EVMEngine) Contracts() []string {
	out := make([]string, 0, len(e.progs))
	for name := range e.progs {
		out = append(out, name)
	}
	return out
}

// contractAddress derives the account that holds a contract's funds.
func contractAddress(name string) types.Address {
	return types.BytesToAddress([]byte("contract:" + name))
}

// ContractAddress exposes the contract funds account derivation to
// read-side consumers (the analytics indexer records it as the
// recipient of value-bearing contract calls).
func ContractAddress(name string) types.Address { return contractAddress(name) }

// run executes one method under the engine's memory model and folds its
// cost into the engine's counters. env and the result stay on the stack:
// evm.Run copies the one and returns the other by value.
func (e *EVMEngine) run(prog *evm.Program, method string, env *evm.Env) evm.Result {
	env.MemBase, env.MemFactor, env.MemCap = e.mem.Base, e.mem.Factor, e.mem.Cap
	start := time.Now()
	res := evm.Run(prog, method, env)
	e.execTime.Add(int64(time.Since(start)))
	e.steps.Add(res.Steps)
	for {
		cur := e.peakMem.Load()
		if res.PeakMem <= cur || e.peakMem.CompareAndSwap(cur, res.PeakMem) {
			return res
		}
	}
}

// Execute implements Engine.
func (e *EVMEngine) Execute(db *state.DB, tx *types.Transaction, blockNum uint64) *types.Receipt {
	r := new(types.Receipt)
	e.ExecuteInto(db, tx, blockNum, r)
	return r
}

// ExecuteInto implements Engine.
func (e *EVMEngine) ExecuteInto(db *state.DB, tx *types.Transaction, blockNum uint64, r *types.Receipt) {
	*r = types.Receipt{TxHash: tx.Hash()}
	snap := db.Snapshot()
	var err error
	if r.GasUsed, r.Output, err = e.apply(db, tx); err != nil {
		db.Revert(snap)
		r.Output, r.Err = nil, err.Error()
		return
	}
	r.OK = true
}

// apply runs tx against db and returns the gas charged, the output and
// the failure, if any; rolling a failure back is the caller's.
func (e *EVMEngine) apply(db *state.DB, tx *types.Transaction) (uint64, []byte, error) {
	if tx.GasLimit < evm.TxIntrinsicGas {
		return tx.GasLimit, nil, evm.ErrOutOfGas
	}
	// Plain value transfer.
	if tx.Contract == "" {
		return evm.TxIntrinsicGas, nil, db.Transfer(tx.From, tx.To, tx.Value)
	}
	prog, ok := e.progs[tx.Contract]
	if !ok {
		return evm.TxIntrinsicGas, nil, fmt.Errorf("exec: no contract %q", tx.Contract)
	}
	addr := contractAddress(tx.Contract)
	if tx.Value > 0 {
		if err := db.Transfer(tx.From, addr, tx.Value); err != nil {
			return evm.TxIntrinsicGas, nil, err
		}
	}
	res := e.run(prog, tx.Method, &evm.Env{
		State:        db,
		Contract:     tx.Contract,
		ContractAddr: addr,
		Caller:       tx.From,
		Value:        tx.Value,
		Args:         tx.Args,
		GasLimit:     tx.GasLimit - evm.TxIntrinsicGas,
	})
	return evm.TxIntrinsicGas + res.GasUsed, res.Output, res.Err
}

// Query implements Engine. Queries run on a snapshot and are always
// rolled back.
func (e *EVMEngine) Query(db *state.DB, contract, method string, args [][]byte) ([]byte, error) {
	prog, ok := e.progs[contract]
	if !ok {
		return nil, fmt.Errorf("exec: no contract %q", contract)
	}
	snap := db.Snapshot()
	defer db.Revert(snap)
	res := e.run(prog, method, &evm.Env{
		State: db, Contract: contract, ContractAddr: contractAddress(contract),
		Args: args, GasLimit: 1 << 40,
	})
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Output, nil
}

// PeakMem reports the largest simulated execution footprint seen.
func (e *EVMEngine) PeakMem() int64 { return e.peakMem.Load() }

// Counters implements metrics.CounterProvider. Peak memory is excluded:
// it is a high-water mark, not a monotonic counter, so per-run deltas
// and per-node sums would be meaningless.
func (e *EVMEngine) Counters() map[string]uint64 {
	return map[string]uint64{
		"exec.time_ns": uint64(e.execTime.Load()),
		"exec.steps":   e.steps.Load(),
	}
}

// NativeEngine executes transactions through compiled-in Go chaincodes,
// the Hyperledger execution model.
type NativeEngine struct {
	codes    map[string]chaincode.Chaincode
	execTime atomic.Int64
}

// NewNativeEngine deploys the named chaincodes from the Table 1 suite.
func NewNativeEngine(contractNames ...string) (*NativeEngine, error) {
	e := &NativeEngine{codes: make(map[string]chaincode.Chaincode)}
	for _, name := range contractNames {
		spec, err := contracts.Lookup(name)
		if err != nil {
			return nil, err
		}
		if spec.Chaincode == nil {
			return nil, fmt.Errorf("exec: contract %q has no chaincode implementation", name)
		}
		e.codes[name] = spec.Chaincode
	}
	return e, nil
}

// Contracts implements Engine.
func (e *NativeEngine) Contracts() []string {
	out := make([]string, 0, len(e.codes))
	for name := range e.codes {
		out = append(out, name)
	}
	return out
}

// Execute implements Engine.
func (e *NativeEngine) Execute(db *state.DB, tx *types.Transaction, blockNum uint64) *types.Receipt {
	r := new(types.Receipt)
	e.ExecuteInto(db, tx, blockNum, r)
	return r
}

// ExecuteInto implements Engine. Chaincode execution is not gas metered
// (Fabric v0.6 "does not consider these semantics in its design").
func (e *NativeEngine) ExecuteInto(db *state.DB, tx *types.Transaction, blockNum uint64, r *types.Receipt) {
	*r = types.Receipt{TxHash: tx.Hash()}
	snap := db.Snapshot()
	cc, ok := e.codes[tx.Contract]
	if !ok {
		r.Err = fmt.Sprintf("exec: no chaincode %q", tx.Contract)
		return
	}
	stub := chaincode.NewStub(db, tx.Contract, tx.From, tx.Value)
	stub.ContractAddr = contractAddress(tx.Contract)
	stub.BlockNumber = blockNum
	start := time.Now()
	out, err := cc.Invoke(stub, tx.Method, tx.Args)
	e.execTime.Add(int64(time.Since(start)))
	if err != nil {
		db.Revert(snap)
		r.Err = err.Error()
		return
	}
	r.OK = true
	r.Output = out
}

// Query implements Engine.
func (e *NativeEngine) Query(db *state.DB, contract, method string, args [][]byte) ([]byte, error) {
	cc, ok := e.codes[contract]
	if !ok {
		return nil, fmt.Errorf("exec: no chaincode %q", contract)
	}
	snap := db.Snapshot()
	defer db.Revert(snap)
	stub := chaincode.NewStub(db, contract, types.ZeroAddress, 0)
	stub.ContractAddr = contractAddress(contract)
	return cc.Query(stub, method, args)
}

// Counters implements metrics.CounterProvider.
func (e *NativeEngine) Counters() map[string]uint64 {
	return map[string]uint64{"exec.time_ns": uint64(e.execTime.Load())}
}
