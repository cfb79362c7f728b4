package sharding

import "sync"

// KeysFunc extracts the state keys one contract call addresses, from
// its method name and raw arguments. Returning nil means "no statically
// known keys": the router pins such transactions to a home shard by
// content hash instead of coordinating across shards.
type KeysFunc func(method string, args [][]byte) [][]byte

var (
	keysMu    sync.RWMutex
	keysFuncs = map[string]KeysFunc{}
)

// RegisterContractKeys installs the key extractor for a contract. The
// built-in YCSB and Smallbank extractors register in this package's
// init; framework users add their own contracts the same way.
// blockbench.OpKeys reads the same extractors, so the partitioner skew
// tooling and the router agree on placement.
func RegisterContractKeys(contract string, fn KeysFunc) {
	keysMu.Lock()
	defer keysMu.Unlock()
	keysFuncs[contract] = fn
}

// ContractKeys returns the state keys a contract call addresses (nil if
// the contract has no registered extractor).
func ContractKeys(contract, method string, args [][]byte) [][]byte {
	keysMu.RLock()
	fn := keysFuncs[contract]
	keysMu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(method, args)
}

func init() {
	// YCSB: every mutating or reading method addresses the single key in
	// args[0] (write key value / read key / delete key).
	RegisterContractKeys("ycsb", func(method string, args [][]byte) [][]byte {
		if len(args) == 0 {
			return nil
		}
		return args[:1]
	})
	// Smallbank: accounts are the partitioning unit. The savings and
	// checking rows of one account share its id (the chaincode prefixes
	// "s:"/"c:" internally), so partitioning on the raw account id keeps
	// both rows co-located. sendPayment and amalgamate touch two
	// accounts; everything else touches one.
	RegisterContractKeys("smallbank", func(method string, args [][]byte) [][]byte {
		switch method {
		case "sendPayment", "amalgamate":
			if len(args) < 2 {
				return nil
			}
			return args[:2]
		default:
			if len(args) == 0 {
				return nil
			}
			return args[:1]
		}
	})
}
