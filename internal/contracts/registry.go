// Package contracts implements the paper's Table 1 smart-contract suite.
// Each contract exists in two forms, exactly as in BLOCKBENCH: an EVM
// version (authored in the repository's assembly language, standing in
// for Solidity) executed by Ethereum and Parity presets, and a native Go
// chaincode executed by the Hyperledger preset.
//
//	YCSB           key-value store            (macro)
//	Smallbank      OLTP bank accounts         (macro)
//	EtherId        domain-name registrar      (macro, real contract)
//	Doubler        pyramid/Ponzi scheme       (macro, real contract)
//	WavesPresale   crowd-sale token tracker   (macro, real contract)
//	VersionKVStore versioned KV for analytics (Hyperledger only)
//	IOHeavy        bulk random reads/writes   (micro: data model)
//	CPUHeavy       quicksort on a big array   (micro: execution layer)
//	DoNothing      empty contract             (micro: consensus layer)
package contracts

import (
	"fmt"

	"blockbench/internal/chaincode"
	"blockbench/internal/evm"
	"blockbench/internal/evm/asm"
)

// Spec bundles both implementations of one contract.
type Spec struct {
	Name string
	// EVM is the bytecode version (nil when the contract exists only as
	// chaincode, like VersionKVStore).
	EVM *evm.Program
	// Chaincode is the native Go version (Hyperledger).
	Chaincode chaincode.Chaincode
}

// specs is the Table 1 suite, sorted by name.
var specs = [...]Spec{
	{Name: "cpuheavy", EVM: asm.MustAssemble(cpuHeavySrc), Chaincode: CPUHeavy{}},      // quicksort a large array
	{Name: "donothing", EVM: asm.MustAssemble(doNothingSrc), Chaincode: DoNothing{}},   // empty contract
	{Name: "doubler", EVM: asm.MustAssemble(doublerSrc), Chaincode: Doubler{}},         // pyramid scheme
	{Name: "etherid", EVM: asm.MustAssemble(etherIdSrc), Chaincode: EtherId{}},         // domain name registrar
	{Name: "ioheavy", EVM: asm.MustAssemble(ioHeavySrc), Chaincode: IOHeavy{}},         // bulk random I/O
	{Name: "smallbank", EVM: asm.MustAssemble(smallbankSrc), Chaincode: Smallbank{}},   // OLTP bank accounts (Smallbank)
	{Name: "versionkv", Chaincode: VersionKV{}},                                        // versioned KV store (Hyperledger only)
	{Name: "wavespresale", EVM: asm.MustAssemble(wavesSrc), Chaincode: WavesPresale{}}, // crowd sale
	{Name: "ycsb", EVM: asm.MustAssemble(ycsbSrc), Chaincode: YCSB{}},                  // key-value store (YCSB)
}

// Lookup returns the spec for name.
func Lookup(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("contracts: unknown contract %q", name)
}

// All returns every spec sorted by name.
func All() []Spec { return append([]Spec(nil), specs[:]...) }
