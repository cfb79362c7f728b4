// Package chaincode implements the Hyperledger-style native contract
// runtime. In Fabric v0.6 "chaincodes are deployed as Docker images
// interacting with Hyperledger's backend via pre-defined interfaces" and
// expose "only simple key-value operations, namely putState and
// getState". Here chaincodes are Go values compiled into the binary —
// the Docker boundary is dropped but the programming model (opaque
// key-value stub, one isolated namespace per chaincode, native-speed
// execution) is preserved, which is what the paper's execution-layer
// comparison measures.
package chaincode

import (
	"errors"
	"fmt"

	"blockbench/internal/state"
	"blockbench/internal/types"
)

// ErrRevert is returned by chaincodes to abort a transaction; the
// surrounding engine rolls back all writes.
var ErrRevert = errors.New("chaincode: invocation reverted")

// Revertf builds a revert error with a message.
func Revertf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRevert, fmt.Sprintf(format, args...))
}

// Stub is the chaincode's only gateway to the ledger, mirroring Fabric's
// shim: GetState/PutState/DelState over the chaincode's own namespace,
// plus invocation context.
type Stub struct {
	db   *state.DB
	name string

	// Caller is the authenticated identity that submitted the
	// transaction; Value is the amount sent with it (always 0 in real
	// Fabric, kept for workload parity with the EVM contracts).
	Caller types.Address
	Value  uint64
	// ContractAddr is the chaincode's pseudo-account, used by ports of
	// contracts that hold funds.
	ContractAddr types.Address
	// BlockNumber is the height of the block being executed. Fabric
	// chaincode can obtain it from a system chaincode; VersionKVStore
	// uses it to tag state versions for historical queries.
	BlockNumber uint64
}

// NewStub binds a stub to a state database and chaincode namespace.
func NewStub(db *state.DB, name string, caller types.Address, value uint64) *Stub {
	return &Stub{db: db, name: name, Caller: caller, Value: value}
}

// GetState reads a key from the chaincode's namespace (nil if absent).
func (s *Stub) GetState(key []byte) []byte { return s.db.GetState(s.name, key) }

// PutState writes a key in the chaincode's namespace.
func (s *Stub) PutState(key, value []byte) { s.db.SetState(s.name, key, value) }

// DelState removes a key from the chaincode's namespace.
func (s *Stub) DelState(key []byte) { s.db.DeleteState(s.name, key) }

// Transfer moves funds between ledger accounts. EVM workloads use real
// balances; the chaincode ports keep the same effect so cross-platform
// results are comparable.
func (s *Stub) Transfer(from, to types.Address, amount uint64) error {
	return s.db.Transfer(from, to, amount)
}

// Balance reads an account balance.
func (s *Stub) Balance(addr types.Address) uint64 { return s.db.GetBalance(addr) }

// Chaincode is the contract interface, following Fabric v0.6's
// Invoke/Query split: Invoke may write state; Query must not (it runs
// against the current state outside consensus).
type Chaincode interface {
	// Invoke executes a state-mutating method.
	Invoke(stub *Stub, method string, args [][]byte) ([]byte, error)
	// Query executes a read-only method.
	Query(stub *Stub, method string, args [][]byte) ([]byte, error)
}

// ErrNoMethod reports an unknown method selector.
var ErrNoMethod = errors.New("chaincode: method not found")
