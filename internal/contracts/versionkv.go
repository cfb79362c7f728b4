package contracts

import (
	"encoding/binary"

	"blockbench/internal/chaincode"
	"blockbench/internal/types"
)

// VersionKV is the VersionKVStore chaincode from the paper's Appendix C
// (Hyperledger only). Hyperledger has no API to query historical state,
// so the chaincode materializes its own version chain: every account
// update writes a new record "<acct>:<version>" holding (balance,
// commitBlock) and bumps "<acct>:latest". Analytics Q2 then needs a
// single RPC — the chaincode scans versions server-side — versus one RPC
// per block on Ethereum/Parity, the ~10x latency gap of Fig 13b.
type VersionKV struct{}

// vkvKey is the key of acct's version ver, built in k.
func vkvKey(k *buf, acct []byte, ver uint64) []byte {
	return binary.BigEndian.AppendUint64(append(k.cat("", acct), ':'), ver)
}

func vkvLatest(stub *chaincode.Stub, acct []byte) (uint64, bool) {
	var k buf
	v := stub.GetState(append(k.cat("", acct), ":latest"...))
	if v == nil {
		return 0, false
	}
	return types.U64(v), true
}

func vkvWrite(stub *chaincode.Stub, acct []byte, balance uint64) {
	ver, ok := vkvLatest(stub, acct)
	if ok {
		ver++
	}
	var k, v buf
	rec := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(v[:0], balance), stub.BlockNumber)
	stub.PutState(vkvKey(&k, acct, ver), rec)
	stub.PutState(append(k.cat("", acct), ":latest"...), binary.BigEndian.AppendUint64(v[:0], ver))
}

func vkvBalance(stub *chaincode.Stub, acct []byte) uint64 {
	ver, ok := vkvLatest(stub, acct)
	if !ok {
		return 0
	}
	var k buf
	rec := stub.GetState(vkvKey(&k, acct, ver))
	if len(rec) < 16 {
		return 0
	}
	return types.U64(rec[:8])
}

// Invoke implements chaincode.Chaincode.
func (VersionKV) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	switch method {
	case "prealloc": // args: acct, balance
		vkvWrite(stub, args[0], types.U64(args[1]))
	case "sendValue": // args: from, to, value
		from, to, val := args[0], args[1], types.U64(args[2])
		fb := vkvBalance(stub, from)
		if fb < val {
			return nil, errLowBalance
		}
		vkvWrite(stub, from, fb-val)
		vkvWrite(stub, to, vkvBalance(stub, to)+val)
	default:
		return nil, chaincode.ErrNoMethod
	}
	return nil, nil
}

// Query implements chaincode.Chaincode.
func (VersionKV) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	switch method {
	case "getBalance": // args: acct
		return types.U64Bytes(vkvBalance(stub, args[0])), nil
	case "accountBlockRange":
		// args: acct, startBlock, endBlock — returns the balances of all
		// versions committed in [start, end), newest first, 8 bytes each.
		// This is Query_AccountBlockRange from Appendix C: one RPC does
		// the whole scan server-side.
		acct := args[0]
		start, end := types.U64(args[1]), types.U64(args[2])
		ver, ok := vkvLatest(stub, acct)
		if !ok {
			return nil, nil
		}
		var out []byte
		var k buf
		for {
			rec := stub.GetState(vkvKey(&k, acct, ver))
			if len(rec) < 16 {
				break
			}
			balance, commit := types.U64(rec[:8]), types.U64(rec[8:])
			if commit >= start && commit < end {
				out = append(out, types.U64Bytes(balance)...)
			} else if commit < start {
				break
			}
			if ver == 0 {
				break
			}
			ver--
		}
		return out, nil
	default:
		return nil, chaincode.ErrNoMethod
	}
}
