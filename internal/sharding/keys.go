package sharding

// ContractKeys returns the state keys a contract call addresses, from
// its method name and raw arguments. nil means "no statically known
// keys" (an unknown contract, or too few arguments): the router pins
// such a transaction to a home shard by content hash instead of
// coordinating across shards. blockbench.OpKeys reads the same
// function, so the partitioner skew tooling and the router agree on
// placement.
func ContractKeys(contract, method string, args [][]byte) [][]byte {
	n := 0
	switch contract {
	case "ycsb":
		// Every mutating or reading method addresses the single key in
		// args[0] (write key value / read key / delete key).
		n = 1
	case "smallbank":
		// Accounts are the partitioning unit. The savings and checking
		// rows of one account share its id (the chaincode prefixes
		// "s:"/"c:" internally), so partitioning on the raw account id
		// keeps both rows co-located. sendPayment and amalgamate touch
		// two accounts; everything else touches one.
		n = 1
		if method == "sendPayment" || method == "amalgamate" {
			n = 2
		}
	}
	if n == 0 || len(args) < n {
		return nil
	}
	return args[:n]
}
