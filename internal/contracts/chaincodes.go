package contracts

import (
	"encoding/binary"
	"sort"

	"blockbench/internal/chaincode"
	"blockbench/internal/types"
)

// The Go chaincode ports. Fabric v0.6 exposes "only simple key-value
// operations, namely putState and getState", so richer structures (the
// Doubler participant list, WavesPresale records, EtherId balances) are
// flattened into key-value tuples — the paper calls this out as making
// "the chaincode more bulky than the Ethereum counterpart".

// buf is a caller's stack buffer for a key or value it only hands to
// the stub, which keeps neither (DESIGN.md § Who owns a slice). 64 bytes
// hold every key and record below; a longer one spills to the heap.
type buf [64]byte

// cat returns prefix followed by part, built in b.
func (b *buf) cat(prefix string, part []byte) []byte {
	return append(append(b[:0], prefix...), part...)
}

// The fixed revert reasons, built once. Each wraps chaincode.ErrRevert
// and reads as chaincode.Revertf would have made it per call.
var (
	errLowChecking = chaincode.Revertf("insufficient checking balance")
	errDomainTaken = chaincode.Revertf("domain taken")
	errNoDomain    = chaincode.Revertf("no such domain")
	errNotOwner    = chaincode.Revertf("not the owner")
	errLowFunds    = chaincode.Revertf("insufficient funds")
	errSaleExists  = chaincode.Revertf("sale exists")
	errNoSale      = chaincode.Revertf("no such sale")
	errSortFailed  = chaincode.Revertf("sort failed")
	errLowBalance  = chaincode.Revertf("insufficient balance")
)

// YCSB is the key-value store chaincode.
type YCSB struct{}

// Invoke implements chaincode.Chaincode.
func (YCSB) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	switch method {
	case "write":
		stub.PutState(args[0], args[1])
		return nil, nil
	case "delete":
		stub.DelState(args[0])
		return nil, nil
	case "read":
		return readOrRevert(stub, args[0])
	default:
		return nil, chaincode.ErrNoMethod
	}
}

// Query implements chaincode.Chaincode.
func (YCSB) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	if method != "read" {
		return nil, chaincode.ErrNoMethod
	}
	return readOrRevert(stub, args[0])
}

func readOrRevert(stub *chaincode.Stub, key []byte) ([]byte, error) {
	v := stub.GetState(key)
	if v == nil {
		return nil, chaincode.Revertf("missing key %q", key)
	}
	return v, nil
}

// Smallbank is the OLTP chaincode: savings and checking balances per
// account under "s:"/"c:" prefixed keys.
type Smallbank struct{}

func sbGet(stub *chaincode.Stub, prefix string, id []byte) uint64 {
	var k buf
	return types.U64(stub.GetState(k.cat(prefix, id)))
}

func sbPut(stub *chaincode.Stub, prefix string, id []byte, v uint64) {
	var k, val buf
	stub.PutState(k.cat(prefix, id), binary.BigEndian.AppendUint64(val[:0], v))
}

// Invoke implements chaincode.Chaincode.
func (Smallbank) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	switch method {
	case "sendPayment":
		from, to, amt := args[0], args[1], types.U64(args[2])
		bal := sbGet(stub, "c:", from)
		if bal < amt {
			return nil, errLowChecking
		}
		sbPut(stub, "c:", from, bal-amt)
		sbPut(stub, "c:", to, sbGet(stub, "c:", to)+amt)
	case "depositChecking":
		id, amt := args[0], types.U64(args[1])
		sbPut(stub, "c:", id, sbGet(stub, "c:", id)+amt)
	case "transactSavings":
		id, amt := args[0], types.U64(args[1])
		sbPut(stub, "s:", id, sbGet(stub, "s:", id)+amt)
	case "writeCheck":
		id, amt := args[0], types.U64(args[1])
		bal := sbGet(stub, "c:", id)
		if bal < amt {
			return nil, errLowChecking
		}
		sbPut(stub, "c:", id, bal-amt)
	case "amalgamate":
		src, dst := args[0], args[1]
		total := sbGet(stub, "s:", src) + sbGet(stub, "c:", src)
		sbPut(stub, "s:", src, 0)
		sbPut(stub, "c:", src, 0)
		sbPut(stub, "c:", dst, sbGet(stub, "c:", dst)+total)
	case "getBalance":
		return types.U64Bytes(sbGet(stub, "s:", args[0]) + sbGet(stub, "c:", args[0])), nil
	default:
		return nil, chaincode.ErrNoMethod
	}
	return nil, nil
}

// Query implements chaincode.Chaincode.
func (Smallbank) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	if method != "getBalance" {
		return nil, chaincode.ErrNoMethod
	}
	return types.U64Bytes(sbGet(stub, "s:", args[0]) + sbGet(stub, "c:", args[0])), nil
}

// EtherId is the domain registrar chaincode. As the paper describes, it
// keeps two key-value namespaces inside one chaincode: "d:"-prefixed
// domain records and "b:"-prefixed user balances (Fabric has no native
// currency, so accounts are pre-allocated with prealloc).
type EtherId struct{}

type eidRecord struct {
	owner types.Address
	price uint64
}

func eidGet(stub *chaincode.Stub, domain []byte) (eidRecord, bool) {
	var k buf
	v := stub.GetState(k.cat("d:", domain))
	if len(v) < types.AddressSize+8 {
		return eidRecord{}, false
	}
	return eidRecord{
		owner: types.BytesToAddress(v[:types.AddressSize]),
		price: binary.BigEndian.Uint64(v[types.AddressSize:]),
	}, true
}

func eidPut(stub *chaincode.Stub, domain []byte, r eidRecord) {
	var k, v buf
	stub.PutState(k.cat("d:", domain), binary.BigEndian.AppendUint64(v.cat("", r.owner[:]), r.price))
}

func eidBal(stub *chaincode.Stub, addr types.Address) uint64 {
	var k buf
	return types.U64(stub.GetState(k.cat("b:", addr[:])))
}

func eidSetBal(stub *chaincode.Stub, addr types.Address, v uint64) {
	var k, val buf
	stub.PutState(k.cat("b:", addr[:]), binary.BigEndian.AppendUint64(val[:0], v))
}

// Invoke implements chaincode.Chaincode.
func (EtherId) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	switch method {
	case "prealloc": // args: addr20, balance
		eidSetBal(stub, types.BytesToAddress(args[0]), types.U64(args[1]))
	case "register": // args: domain, price
		if _, ok := eidGet(stub, args[0]); ok {
			return nil, errDomainTaken
		}
		eidPut(stub, args[0], eidRecord{owner: stub.Caller, price: types.U64(args[1])})
	case "transfer": // args: domain, newOwner20
		r, ok := eidGet(stub, args[0])
		if !ok {
			return nil, errNoDomain
		}
		if r.owner != stub.Caller {
			return nil, errNotOwner
		}
		r.owner = types.BytesToAddress(args[1])
		eidPut(stub, args[0], r)
	case "buy": // args: domain; pays from the caller's pre-allocated funds
		r, ok := eidGet(stub, args[0])
		if !ok {
			return nil, errNoDomain
		}
		bal := eidBal(stub, stub.Caller)
		if bal < r.price {
			return nil, errLowFunds
		}
		eidSetBal(stub, stub.Caller, bal-r.price)
		eidSetBal(stub, r.owner, eidBal(stub, r.owner)+r.price)
		r.owner = stub.Caller
		eidPut(stub, args[0], r)
	case "query":
		return (EtherId{}).Query(stub, method, args)
	default:
		return nil, chaincode.ErrNoMethod
	}
	return nil, nil
}

// Query implements chaincode.Chaincode.
func (EtherId) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	if method != "query" {
		return nil, chaincode.ErrNoMethod
	}
	var k buf
	v := stub.GetState(k.cat("d:", args[0]))
	if v == nil {
		return nil, errNoDomain
	}
	return v, nil
}

// Doubler is the pyramid-scheme chaincode. The Solidity participant
// array becomes indexed keys "p:<n>"; the pot is tracked explicitly in
// state since chaincode has no contract account.
type Doubler struct{}

func dblIdx(stub *chaincode.Stub, key string) uint64 {
	return types.U64(stub.GetState([]byte(key)))
}

func dblSetIdx(stub *chaincode.Stub, key string, v uint64) {
	var val buf
	stub.PutState([]byte(key), binary.BigEndian.AppendUint64(val[:0], v))
}

// dblPartKey is participant i's key, built in k.
func dblPartKey(k *buf, i uint64) []byte {
	return binary.BigEndian.AppendUint64(k.cat("p:", nil), i)
}

// Invoke implements chaincode.Chaincode.
func (Doubler) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	if method != "enter" {
		return nil, chaincode.ErrNoMethod
	}
	n := dblIdx(stub, "n")
	var k, rec buf
	stub.PutState(dblPartKey(&k, n), binary.BigEndian.AppendUint64(rec.cat("", stub.Caller[:]), stub.Value))
	dblSetIdx(stub, "n", n+1)
	pot := dblIdx(stub, "pot") + stub.Value
	i := dblIdx(stub, "i")
	for i < n+1 {
		r := stub.GetState(dblPartKey(&k, i))
		if len(r) < types.AddressSize+8 {
			break
		}
		amount := binary.BigEndian.Uint64(r[types.AddressSize:])
		if pot <= 2*amount {
			break
		}
		pot -= 2 * amount
		addr := types.BytesToAddress(r[:types.AddressSize])
		if err := stub.Transfer(stub.ContractAddr, addr, 0); err != nil {
			// The contract account carries no real funds under Fabric;
			// payouts are pot bookkeeping only.
			_ = err
		}
		i++
	}
	dblSetIdx(stub, "pot", pot)
	dblSetIdx(stub, "i", i)
	return nil, nil
}

// Query implements chaincode.Chaincode.
func (Doubler) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	switch method {
	case "participants":
		return types.U64Bytes(dblIdx(stub, "n")), nil
	case "payoutIndex":
		return types.U64Bytes(dblIdx(stub, "i")), nil
	default:
		return nil, chaincode.ErrNoMethod
	}
}

// WavesPresale is the crowd-sale chaincode: a total counter plus one
// record per sale under "s:<id>".
type WavesPresale struct{}

// Invoke implements chaincode.Chaincode.
func (WavesPresale) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	var k, v buf
	switch method {
	case "newSale": // args: id, tokens
		key := k.cat("s:", args[0])
		if stub.GetState(key) != nil {
			return nil, errSaleExists
		}
		tokens := types.U64(args[1])
		stub.PutState(key, binary.BigEndian.AppendUint64(v.cat("", stub.Caller[:]), tokens))
		total := types.U64(stub.GetState([]byte("t"))) + tokens
		stub.PutState([]byte("t"), binary.BigEndian.AppendUint64(v[:0], total))
	case "transferSale": // args: id, newOwner20
		key := k.cat("s:", args[0])
		rec := stub.GetState(key)
		if rec == nil {
			return nil, errNoSale
		}
		if types.BytesToAddress(rec[:types.AddressSize]) != stub.Caller {
			return nil, errNotOwner
		}
		out := v.cat("", rec)
		copy(out[:types.AddressSize], args[1])
		stub.PutState(key, out)
	default:
		return nil, chaincode.ErrNoMethod
	}
	return nil, nil
}

// Query implements chaincode.Chaincode.
func (WavesPresale) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	switch method {
	case "getSale":
		var k buf
		rec := stub.GetState(k.cat("s:", args[0]))
		if rec == nil {
			return nil, errNoSale
		}
		return rec, nil
	case "total":
		return types.U64Bytes(types.U64(stub.GetState([]byte("t")))), nil
	default:
		return nil, chaincode.ErrNoMethod
	}
}

// IOHeavy performs n random writes or reads per invocation with the same
// key derivation as the EVM version (20-byte keys, 100-byte values).
type IOHeavy struct{}

// ioKey is inlined into Invoke, so its fixed-size make is Invoke's
// stack buffer, as a buf would be.
func ioKey(k uint64) []byte {
	key := make([]byte, 20)
	binary.LittleEndian.PutUint64(key[0:], k)
	binary.LittleEndian.PutUint64(key[8:], k*2654435761)
	binary.LittleEndian.PutUint64(key[12:], k*2654435761)
	return key
}

// Invoke implements chaincode.Chaincode.
func (IOHeavy) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	n, seed := types.U64(args[0]), types.U64(args[1])
	switch method {
	case "write":
		val := make([]byte, 100)
		for j := uint64(0); j < n; j++ {
			binary.LittleEndian.PutUint64(val, j)
			stub.PutState(ioKey(seed+j), val)
		}
	case "read":
		for j := uint64(0); j < n; j++ {
			_ = stub.GetState(ioKey(seed + j))
		}
	default:
		return nil, chaincode.ErrNoMethod
	}
	return nil, nil
}

// Query implements chaincode.Chaincode.
func (IOHeavy) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	if method != "read" {
		return nil, chaincode.ErrNoMethod
	}
	return (IOHeavy{}).Invoke(stub, method, args)
}

// CPUHeavy sorts n descending integers with the same iterative Hoare
// quicksort as the EVM version, compiled to native code — the paper's
// execution-layer comparison point ("the smart contract is compiled and
// runs directly on the native machine").
type CPUHeavy struct{}

// Invoke implements chaincode.Chaincode.
func (CPUHeavy) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	if method != "sort" {
		return nil, chaincode.ErrNoMethod
	}
	n := int(types.U64(args[0]))
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(n - i)
	}
	quicksort(a)
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		return nil, errSortFailed
	}
	if n == 0 {
		return types.U64Bytes(0), nil
	}
	return types.U64Bytes(a[0]), nil
}

// Query implements chaincode.Chaincode. Sorting is stateless, so the
// read-only path simply delegates (the CPUHeavy experiment measures
// execution speed without consensus).
func (c CPUHeavy) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	return c.Invoke(stub, method, args)
}

// quicksort is the iterative Hoare-partition quicksort, mirroring the
// EVM bytecode so both platforms execute the same algorithm.
func quicksort(a []uint64) {
	if len(a) < 2 {
		return
	}
	type seg struct{ lo, hi int }
	stack := []seg{{0, len(a) - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.lo >= s.hi {
			continue
		}
		pivot := a[(s.lo+s.hi)/2]
		i, j := s.lo, s.hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if s.lo < j {
			stack = append(stack, seg{s.lo, j})
		}
		if i < s.hi {
			stack = append(stack, seg{i, s.hi})
		}
	}
}

// DoNothing accepts any invocation and returns immediately.
type DoNothing struct{}

// Invoke implements chaincode.Chaincode.
func (DoNothing) Invoke(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	return nil, nil
}

// Query implements chaincode.Chaincode.
func (DoNothing) Query(stub *chaincode.Stub, method string, args [][]byte) ([]byte, error) {
	return nil, nil
}
