package evm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"blockbench/internal/contracts"
	"blockbench/internal/evm"
	"blockbench/internal/evm/asm"
	"blockbench/internal/types"
)

// The golden table pins what a run of the VM reports — gas, steps,
// output, simulated peak memory, error — and what it did to the state,
// for every registry contract × method, a sweep of out-of-gas points, the
// MemCap trap, a set of hand-written trap programs and 400 seeded random
// programs. testdata/golden.txt was captured on the commit *before* the
// interpreter's memory, pooling and dispatch were rewritten (PR 20) and
// must pass unmodified: those are harness changes, so no row may move.
//
//	go test ./internal/evm -run TestGolden -update   # append new rows
//
// -update keeps every existing row and refuses to run when one of them
// would change; a change to the modelled machine itself removes the
// file first, so -update writes the whole table.
var updateGolden = flag.Bool("update", false, "append new rows to testdata/golden.txt")

const goldenPath = "testdata/golden.txt"

// traceState is a map-backed evm.State that folds every call it receives
// into a running digest, so a row also pins what the program read and
// wrote: the bytes SetState sees come straight out of VM memory.
type traceState struct {
	kv  map[string][]byte
	bal map[types.Address]uint64
	h   hash.Hash
}

func newTraceState() *traceState {
	return &traceState{kv: map[string][]byte{}, bal: map[types.Address]uint64{}, h: sha256.New()}
}

func (s *traceState) note(op byte, parts ...[]byte) {
	s.h.Write([]byte{op})
	for _, p := range parts {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		s.h.Write(n[:])
		s.h.Write(p)
	}
}

func (s *traceState) digest() string { return hex.EncodeToString(s.h.Sum(nil)[:6]) }

func (s *traceState) GetState(c string, key []byte) []byte {
	v := s.kv[c+"\x00"+string(key)]
	s.note('G', []byte(c), key, v)
	return v
}

func (s *traceState) SetState(c string, key, value []byte) {
	s.note('S', []byte(c), key, value)
	s.kv[c+"\x00"+string(key)] = append([]byte{}, value...)
}

func (s *traceState) DeleteState(c string, key []byte) {
	s.note('D', []byte(c), key)
	delete(s.kv, c+"\x00"+string(key))
}

func (s *traceState) GetBalance(a types.Address) uint64 {
	s.note('B', a[:], types.U64Bytes(s.bal[a]))
	return s.bal[a]
}

func (s *traceState) Transfer(from, to types.Address, amount uint64) error {
	s.note('T', from[:], to[:], types.U64Bytes(amount))
	if !from.IsZero() {
		if s.bal[from] < amount {
			return errors.New("insufficient funds")
		}
		s.bal[from] -= amount
	}
	s.bal[to] += amount
	return nil
}

// goldenRun is one scenario: calls share a state and append rows.
type goldenRun struct {
	st   *traceState
	rows *[]string
	seen map[string]bool // contract/method pairs exercised
}

// call runs one method and appends its row. A panic is recorded as the
// error "panic" (the parent panicked on zero-length ranges that start
// past the end of memory; see TestGoldenTable).
func (g *goldenRun) call(name string, prog *evm.Program, method string, env evm.Env) {
	env.State = g.st
	row := func() (row string) {
		defer func() {
			if r := recover(); r != nil {
				row = "panic"
			}
		}()
		res := evm.Run(prog, method, &env)
		errs := "-"
		if res.Err != nil {
			errs = strings.ReplaceAll(res.Err.Error(), " ", "_")
		}
		out := "-"
		if len(res.Output) > 0 {
			out = hex.EncodeToString(res.Output)
		}
		return fmt.Sprintf("%d %d %d %s %s %s", res.GasUsed, res.Steps, res.PeakMem, errs, out, g.st.digest())
	}()
	*g.rows = append(*g.rows, name+" "+row)
}

// invoke calls a registry contract the way exec.EVMEngine does.
func (g *goldenRun) invoke(name, contract, method string, caller types.Address, value uint64, env evm.Env, args ...[]byte) {
	spec, err := contracts.Lookup(contract)
	if err != nil {
		panic(err)
	}
	g.seen[contract+"/"+method] = true
	env.Contract = contract
	env.ContractAddr = types.BytesToAddress([]byte("contract:" + contract))
	env.Caller, env.Value, env.Args = caller, value, args
	if env.GasLimit == 0 {
		env.GasLimit = 1 << 40
	}
	if value > 0 {
		if err := g.st.Transfer(caller, env.ContractAddr, value); err != nil {
			panic(err)
		}
	}
	g.call(name, spec.EVM, method, env)
}

func goldenAddr(s string) types.Address { return types.BytesToAddress([]byte(s)) }

func u64(v uint64) []byte { return types.U64Bytes(v) }

// goldenRows runs every scenario and returns the table.
func goldenRows(t *testing.T) []string {
	var rows []string
	seen := map[string]bool{}
	scenario := func() *goldenRun { return &goldenRun{st: newTraceState(), rows: &rows, seen: seen} }
	alice, bob := goldenAddr("alice"), goldenAddr("bob")
	none := evm.Env{}
	geth := evm.Env{MemBase: 20 << 20, MemFactor: 262, MemCap: 320 << 20}
	parity := evm.Env{MemBase: 6 << 20, MemFactor: 17, MemCap: 320 << 20}

	// ycsb
	g := scenario()
	key, val := []byte("user123456789012345!"), make([]byte, 100)
	for i := range val {
		val[i] = byte(i * 7)
	}
	g.invoke("ycsb/write", "ycsb", "write", alice, 0, none, key, val)
	g.invoke("ycsb/read", "ycsb", "read", alice, 0, none, key)
	g.invoke("ycsb/read-miss", "ycsb", "read", alice, 0, none, []byte("nope"))
	g.invoke("ycsb/write-geth", "ycsb", "write", alice, 0, geth, []byte("k2"), val[:10])
	g.invoke("ycsb/write-parity", "ycsb", "write", alice, 0, parity, []byte("k3"), val[:1])
	g.invoke("ycsb/delete", "ycsb", "delete", alice, 0, none, key)
	g.invoke("ycsb/read-deleted", "ycsb", "read", alice, 0, none, key)
	g.invoke("ycsb/no-args", "ycsb", "write", alice, 0, none)
	g.invoke("ycsb/no-method", "ycsb", "bogus", alice, 0, none)
	for _, gas := range []uint64{0, 5, 30, 80, 300, 500, 561} {
		g.invoke(fmt.Sprintf("ycsb/write-gas=%d", gas), "ycsb", "write", alice, 0, evm.Env{GasLimit: gas + 1}, key, val)
	}

	// smallbank
	g = scenario()
	a1, a2 := u64(1), u64(2)
	g.invoke("smallbank/depositChecking", "smallbank", "depositChecking", alice, 0, none, a1, u64(100))
	g.invoke("smallbank/transactSavings", "smallbank", "transactSavings", alice, 0, none, a1, u64(50))
	g.invoke("smallbank/sendPayment", "smallbank", "sendPayment", alice, 0, none, a1, a2, u64(30))
	g.invoke("smallbank/sendPayment-overdraft", "smallbank", "sendPayment", alice, 0, none, a1, a2, u64(1000))
	g.invoke("smallbank/writeCheck", "smallbank", "writeCheck", alice, 0, none, a1, u64(10))
	g.invoke("smallbank/writeCheck-overdraft", "smallbank", "writeCheck", alice, 0, none, a1, u64(10000))
	g.invoke("smallbank/getBalance-1", "smallbank", "getBalance", alice, 0, none, a1)
	g.invoke("smallbank/amalgamate", "smallbank", "amalgamate", alice, 0, geth, a1, a2)
	g.invoke("smallbank/getBalance-2", "smallbank", "getBalance", alice, 0, none, a2)
	g.invoke("smallbank/getBalance-unknown", "smallbank", "getBalance", alice, 0, none, u64(99))
	for _, gas := range []uint64{10, 100, 400, 700} {
		g.invoke(fmt.Sprintf("smallbank/sendPayment-gas=%d", gas), "smallbank", "sendPayment", alice, 0, evm.Env{GasLimit: gas}, a2, a1, u64(1))
	}

	// etherid
	g = scenario()
	g.st.bal[alice], g.st.bal[bob] = 1000, 1000
	dom := u64(42)
	g.invoke("etherid/register", "etherid", "register", alice, 0, none, dom, u64(100))
	g.invoke("etherid/register-taken", "etherid", "register", bob, 0, none, dom, u64(1))
	g.invoke("etherid/query", "etherid", "query", alice, 0, none, dom)
	g.invoke("etherid/query-missing", "etherid", "query", alice, 0, none, u64(7))
	g.invoke("etherid/transfer-notowner", "etherid", "transfer", bob, 0, none, dom, bob.Bytes())
	g.invoke("etherid/buy", "etherid", "buy", bob, 150, none, dom)
	g.invoke("etherid/buy-cheap", "etherid", "buy", alice, 10, none, dom)
	g.invoke("etherid/buy-missing", "etherid", "buy", alice, 10, none, u64(8))
	g.invoke("etherid/transfer", "etherid", "transfer", bob, 0, parity, dom, alice.Bytes())
	g.invoke("etherid/transfer-missing", "etherid", "transfer", bob, 0, none, u64(9), alice.Bytes())
	g.invoke("etherid/query-after", "etherid", "query", bob, 0, none, dom)

	// doubler
	g = scenario()
	for i := 0; i < 6; i++ {
		u := goldenAddr(fmt.Sprintf("u%d", i))
		g.st.bal[u] = 1000
		g.invoke(fmt.Sprintf("doubler/enter-%d", i), "doubler", "enter", u, 100+uint64(i)*10, none)
	}
	g.invoke("doubler/enter-novalue", "doubler", "enter", alice, 0, none)
	g.invoke("doubler/enter-gas=600", "doubler", "enter", alice, 0, evm.Env{GasLimit: 600})

	// wavespresale
	g = scenario()
	id := u64(1)
	g.invoke("wavespresale/newSale", "wavespresale", "newSale", alice, 0, none, id, u64(100))
	g.invoke("wavespresale/newSale-dup", "wavespresale", "newSale", alice, 0, none, id, u64(5))
	g.invoke("wavespresale/newSale-2", "wavespresale", "newSale", bob, 0, none, u64(2), u64(50))
	g.invoke("wavespresale/total", "wavespresale", "total", alice, 0, none)
	g.invoke("wavespresale/transferSale-notowner", "wavespresale", "transferSale", bob, 0, none, id, bob.Bytes())
	g.invoke("wavespresale/transferSale", "wavespresale", "transferSale", alice, 0, none, id, bob.Bytes())
	g.invoke("wavespresale/transferSale-missing", "wavespresale", "transferSale", alice, 0, none, u64(3), bob.Bytes())
	g.invoke("wavespresale/getSale", "wavespresale", "getSale", alice, 0, none, id)
	g.invoke("wavespresale/getSale-missing", "wavespresale", "getSale", alice, 0, none, u64(3))

	// ioheavy
	g = scenario()
	g.invoke("ioheavy/write", "ioheavy", "write", alice, 0, none, u64(50), u64(9999))
	g.invoke("ioheavy/read", "ioheavy", "read", alice, 0, none, u64(50), u64(9999))
	g.invoke("ioheavy/read-miss", "ioheavy", "read", alice, 0, none, u64(20), u64(5))
	g.invoke("ioheavy/write-0", "ioheavy", "write", alice, 0, none, u64(0), u64(1))
	g.invoke("ioheavy/write-gas=3000", "ioheavy", "write", alice, 0, evm.Env{GasLimit: 3000}, u64(50), u64(0))

	// donothing
	g = scenario()
	g.invoke("donothing/invoke", "donothing", "invoke", alice, 0, none)
	g.invoke("donothing/invoke-gas=0", "donothing", "invoke", alice, 0, evm.Env{GasLimit: 0, MemBase: 77})

	// cpuheavy: sizes, the two platform memory models, out of gas at a
	// sweep of limits (0..63 covers the first growth — PUSH, ARGW, PUSH,
	// SWAP, MSTORE to offset 400 costs 7 + 13 words, so limits 7..19 die
	// *inside* vm.grow's charge — and the larger ones die mid-sort), and
	// the MemCap trap around the n = 300 run's exact final footprint.
	g = scenario()
	for _, n := range []uint64{0, 1, 2, 300, 1000} {
		g.invoke(fmt.Sprintf("cpuheavy/sort-n=%d", n), "cpuheavy", "sort", alice, 0, none, u64(n))
	}
	g.invoke("cpuheavy/sort-n=300-geth", "cpuheavy", "sort", alice, 0, geth, u64(300))
	g.invoke("cpuheavy/sort-n=1000-parity", "cpuheavy", "sort", alice, 0, parity, u64(1000))
	g.invoke("cpuheavy/sort-n=40000-parity", "cpuheavy", "sort", alice, 0, parity, u64(40000))
	g.invoke("cpuheavy/sort-n=200000-geth-oom", "cpuheavy", "sort", alice, 0, geth, u64(200000))
	// (A limit of 0 means invoke's default, so the first row is a full
	// run; MemBase 1 shows the peak a run reports before it has grown.)
	for gas := uint64(0); gas < 64; gas++ {
		g.invoke(fmt.Sprintf("cpuheavy/sort-n=300-gas=%d", gas), "cpuheavy", "sort", alice, 0, evm.Env{GasLimit: gas, MemBase: 1}, u64(300))
	}
	for _, gas := range []uint64{100, 1000, 7777, 10000, 50000, 100000, 250000, 400000} {
		g.invoke(fmt.Sprintf("cpuheavy/sort-n=300-gas=%d", gas), "cpuheavy", "sort", alice, 0, evm.Env{GasLimit: gas}, u64(300))
	}
	for _, cap := range []int64{1, 1000, 5000, 20000, 30000, 34000, 35000, 36000, 37000, 38000, 39000, 40000, 50000} {
		g.invoke(fmt.Sprintf("cpuheavy/sort-n=300-memcap=%d", cap), "cpuheavy", "sort", alice, 0,
			evm.Env{MemBase: 1000, MemFactor: 10, MemCap: cap}, u64(300))
	}
	for _, cap := range []int64{3519, 3520, 3551, 3552, 3553} {
		g.invoke(fmt.Sprintf("cpuheavy/sort-n=300-memcap=%d-f0", cap), "cpuheavy", "sort", alice, 0,
			evm.Env{MemCap: cap}, u64(300))
	}

	// Every EVM method in the registry was exercised; versionkv is
	// chaincode only.
	for _, spec := range contracts.All() {
		if spec.EVM == nil {
			if spec.Name != "versionkv" {
				t.Errorf("%s has no EVM program", spec.Name)
			}
			continue
		}
		for method := range spec.EVM.Funcs {
			if !seen[spec.Name+"/"+method] {
				t.Errorf("golden table does not call %s.%s", spec.Name, method)
			}
		}
	}

	// Hand-written programs: traps, their order relative to the gas
	// charge, revert payloads, MSIZE/GASLEFT, zero-length ranges. From
	// here on every program gets a state of its own, so a row the parent
	// panicked on cannot leak into the rows after it.
	adhocEnv := evm.Env{
		Contract: "adhoc", ContractAddr: goldenAddr("contract:adhoc"), Caller: alice, Value: 9,
		Args: [][]byte{u64(5), bob.Bytes(), val, {}}, GasLimit: 100000,
	}
	adhoc := func(name string, prog *evm.Program, env evm.Env) {
		g := scenario()
		g.st.bal[env.ContractAddr] = 50
		g.call(name, prog, "main", env)
	}
	for _, p := range adhocPrograms {
		prog, err := asm.Assemble(".func main\n" + p.src)
		if err != nil {
			t.Fatalf("adhoc %s: %v", p.name, err)
		}
		env := adhocEnv
		if p.gas != 0 {
			env.GasLimit = p.gas
		}
		env.MemBase, env.MemFactor, env.MemCap = p.base, p.factor, p.cap
		adhoc("adhoc/"+p.name, prog, env)
	}
	raw := func(name string, code ...byte) {
		adhoc("raw/"+name, &evm.Program{Code: code, Funcs: map[string]uint32{"main": 0}}, adhocEnv)
	}
	raw("empty")
	raw("bad-opcode", 0xff)
	raw("bad-opcode-after-push", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x99)
	raw("truncated-push", 0x10, 1, 2, 3)
	raw("truncated-jump", 0x20, 1, 2)
	raw("truncated-jumpi", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x21, 1)
	raw("truncated-callsub", 0x22)
	raw("truncated-dup", 0x12)
	raw("truncated-swap", 0x13)
	raw("jump-to-end", 0x20, 5, 0, 0, 0)
	raw("jump-past-end", 0x20, 6, 0, 0, 0)
	raw("jump-negative", 0x20, 0xff, 0xff, 0xff, 0xff)
	raw("jumpi-past-end-not-taken", 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0x21, 0xff, 0, 0, 0)
	raw("jumpi-past-end-taken", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x21, 0xff, 0, 0, 0)
	raw("callsub-past-end", 0x22, 0xff, 0, 0, 0)
	raw("dup-0", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x12, 0)
	raw("swap-0", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x13, 0)
	adhoc("raw/entry-past-end", &evm.Program{Code: []byte{0}, Funcs: map[string]uint32{"main": 9}}, adhocEnv)

	// Seeded random programs over the whole opcode space.
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 400; i++ {
		env := adhocEnv
		env.GasLimit = 2000 + uint64(rng.Intn(6000))
		if i%3 == 0 {
			env.MemBase, env.MemFactor, env.MemCap = 1000, 7, 100_000
		}
		adhoc(fmt.Sprintf("rand/%d", i), randomProgram(rng), env)
	}

	// The interpreter runs some straight-line runs in one dispatch when
	// nothing in them can trap (PUSH a; MLOAD — PUSH k; ADD, SUB or MUL
	// — PUSH a; SWAP 1; MSTORE — ISZERO; JUMPI — SWAP 1; MSTORE). These
	// rows put each run at the edge of that guard: a sweep of gas limits
	// that runs out at each of its instructions, a PUSH at 1 024
	// operands, an address that needs growth or wraps, too few operands,
	// a jump into the middle of a run and a JUMPI target past the end.
	// They were captured on the interpreter that dispatched every
	// instruction on its own.
	for _, p := range fusedEdges() {
		prog, err := asm.Assemble(".func main\n" + p.src)
		if err != nil {
			t.Fatalf("fused %s: %v", p.name, err)
		}
		for gas := p.lo; gas <= p.hi; gas++ {
			env, name := adhocEnv, "fused/"+p.name
			if gas != 0 {
				env.GasLimit, name = gas, fmt.Sprintf("%s-gas=%d", name, gas)
			}
			adhoc(name, prog, env)
		}
	}
	for _, v := range []byte{0, 1} { // ISZERO; JUMPI inside a PUSH immediate, reached by a jump
		raw(fmt.Sprintf("fused-in-immediate-%d", v), 0x10, v, 0, 0, 0, 0, 0, 0, 0, 0x20, 15, 0, 0, 0,
			0x10, 0x09, 0x21, 23, 0, 0, 0, 0x00, 0x00, 0x34, 0x00)
		raw(fmt.Sprintf("iszero-jumpi-past-end-%d", v), 0x10, v, 0, 0, 0, 0, 0, 0, 0, 0x09, 0x21, 0xff, 0, 0, 0)
		raw(fmt.Sprintf("iszero-jumpi-to-end-%d", v), 0x10, v, 0, 0, 0, 0, 0, 0, 0, 0x09, 0x21, 15, 0, 0, 0)
		raw(fmt.Sprintf("iszero-jumpi-one-past-end-%d", v), 0x10, v, 0, 0, 0, 0, 0, 0, 0, 0x09, 0x21, 16, 0, 0, 0)
	}
	raw("iszero-jumpi-truncated", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x09, 0x21, 1, 2)
	raw("iszero-jumpi-underflow", 0x09, 0x21, 0, 0, 0, 0)
	raw("swap-mstore-underflow-0", 0x13, 0x01, 0x31)
	return rows
}

// fusedEdge is a program swept over the gas limits lo..hi (0: the
// ad-hoc default only).
type fusedEdge struct {
	name, src string
	lo, hi    uint64
}

func fusedEdges() []fusedEdge {
	const ret = "\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN" // the top operand as output
	edges := []fusedEdge{
		{"push-mload", "PUSH 0\nPUSH 0x1122\nMSTORE\nPUSH 0\nMLOAD\nPUSH 24\nSWAP 1\nMSTORE\nPUSH 24\nPUSH 8\nRETURN", 5, 19},
		{"push-mload-grows", "PUSH 0\nPUSH 1\nMSTORE\nPUSH 25\nMLOAD\nSTOP", 6, 12},
		{"push-mload-fresh", "PUSH 5000\nMLOAD\nSTOP", 0, 0},
		{"push-mload-wraps-to-0", "PUSH 0xfffffffffffffff8\nMLOAD\nSTOP", 0, 0},
		{"push-mload-wraps-to-1", "PUSH 0xfffffffffffffff9\nMLOAD\nSTOP", 0, 0},
		{"push-mload-overflow", "PUSH 0\nPUSH 0\nMSTORE\nloop:\nPUSH 8\nMLOAD\nJUMP @loop", 0, 0},
		{"push-swap-mstore", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 9\nPUSH 24\nSWAP 1\nMSTORE\nPUSH 24\nPUSH 8\nRETURN", 5, 16},
		{"push-swap-mstore-grows", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 9\nPUSH 25\nSWAP 1\nMSTORE\nSTOP", 6, 14},
		{"push-swap-mstore-wraps", "PUSH 9\nPUSH 0xfffffffffffffff8\nSWAP 1\nMSTORE", 0, 0},
		{"push-swap-mstore-underflow", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 24\nSWAP 1\nMSTORE", 0, 0},
		{"push-swap-mstore-overflow", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 1\nloop:\nDUP 1\nPUSH 0\nSWAP 1\nMSTORE\nDUP 1\nJUMP @loop", 0, 0},
		{"iszero-jumpi-taken", "PUSH 0\nISZERO\nJUMPI @t\nPUSH 1\nt:\nPUSH 2\nSTOP", 1, 7},
		{"iszero-jumpi-not-taken", "PUSH 1\nISZERO\nJUMPI @t\nPUSH 1\nt:\nPUSH 2\nSTOP", 1, 7},
		{"swap-mstore", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 9\nPUSH 20\nPUSH 4\nADD\nSWAP 1\nMSTORE\nPUSH 24\nPUSH 8\nRETURN", 7, 18},
		{"swap-mstore-grows", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 9\nPUSH 21\nPUSH 4\nADD\nSWAP 1\nMSTORE\nSTOP", 9, 16},
		{"push-swap-2-mstore", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 7\nPUSH 16\nPUSH 8\nSWAP 2\nMSTORE\nPUSH 0\nPUSH 24\nRETURN", 0, 0},
		{"swap-mstore-wraps-to-0", "PUSH 9\nPUSH 7\nNOT\nSWAP 1\nMSTORE", 0, 0},
		{"swap-mstore-wraps-to-4", "PUSH 9\nPUSH 3\nNOT\nSWAP 1\nMSTORE", 0, 0},
		{"swap-mstore-underflow-1", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 8\nNOT\nNOT\nSWAP 1\nMSTORE", 0, 0},
		{"jump-to-mload", "PUSH 16\nPUSH 0x1122\nMSTORE\nPUSH 16\nJUMP @mid\nPUSH 8\nmid:\nMLOAD" + ret, 0, 0},
		{"jump-to-add", "PUSH 5\nPUSH 6\nJUMP @mid\nPUSH 100\nmid:\nADD" + ret, 0, 0},
		{"jump-to-swap", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 7\nPUSH 16\nJUMP @mid\nPUSH 8\nmid:\nSWAP 1\nMSTORE\nPUSH 16\nPUSH 8\nRETURN", 0, 0},
		{"jump-to-mstore", "PUSH 0\nPUSH 0\nMSTORE\nPUSH 16\nPUSH 5\nJUMP @mid\nPUSH 8\nSWAP 1\nmid:\nMSTORE\nPUSH 16\nPUSH 8\nRETURN", 0, 0},
		{"jump-to-jumpi", "PUSH 0\nJUMP @mid\nISZERO\nmid:\nJUMPI @t\nPUSH 1\nt:\nSTOP", 0, 0},
	}
	for _, op := range []string{"ADD", "SUB", "MUL"} {
		edges = append(edges,
			fusedEdge{"push-" + op, "PUSH 3\nPUSH 4\n" + op + ret, 1, 13},
			fusedEdge{"push-" + op + "-underflow", "PUSH 4\n" + op, 0, 0},
			fusedEdge{"push-" + op + "-overflow", "PUSH 1\nloop:\nDUP 1\nPUSH 1\n" + op + "\nJUMP @loop", 0, 0})
	}
	return edges
}

var adhocPrograms = []struct {
	name              string
	src               string
	gas               uint64
	base, factor, cap int64
}{
	{name: "stop", src: "STOP"},
	{name: "falloff", src: "PUSH 1"},
	{name: "growth-oog", src: "PUSH 4096\nPUSH 7\nMSTORE\nSTOP", gas: 100},
	{name: "growth-exact", src: "PUSH 4096\nPUSH 7\nMSTORE\nSTOP", gas: 134},
	{name: "growth-one-short", src: "PUSH 4096\nPUSH 7\nMSTORE\nSTOP", gas: 133},
	{name: "mstore-oog-before-growth", src: "PUSH 4096\nPUSH 7\nMSTORE\nSTOP", gas: 4},
	{name: "msize-rounds", src: "PUSH 33\nMLOAD1\nPOP\nMSIZE\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "mload-fresh-is-zero", src: "PUSH 5000\nMLOAD\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "mstore1-mload", src: "PUSH 3\nPUSH 0x1ff\nMSTORE1\nPUSH 0\nMLOAD\nPUSH 8\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 16\nRETURN"},
	{name: "memcap-trap", src: "PUSH 64\nPUSH 1\nMSTORE\nPUSH 6400\nPUSH 1\nMSTORE\nSTOP", base: 500, factor: 3, cap: 10000},
	{name: "memcap-exact", src: "PUSH 3160\nPUSH 1\nMSTORE\nSTOP", base: 500, factor: 3, cap: 10004},
	{name: "memcap-one-over", src: "PUSH 3160\nPUSH 1\nMSTORE\nSTOP", base: 500, factor: 3, cap: 10003},
	{name: "memcap-below-base", src: "PUSH 0\nPUSH 1\nMSTORE\nSTOP", base: 500, factor: 3, cap: 400},
	{name: "memcap-oog-first", src: "PUSH 6400\nPUSH 1\nMSTORE\nSTOP", gas: 50, base: 500, factor: 3, cap: 10000},
	{name: "mem-sanity-bound", src: "PUSH 0x10000000000\nMLOAD\nSTOP"},
	{name: "mem-sanity-edge", src: "PUSH 0xfffffffff8\nMLOAD\nSTOP"},
	{name: "mem-offset-wraps", src: "PUSH 0xfffffffffffffffc\nMLOAD\nSTOP"},
	{name: "revert-payload", src: "PUSH 0\nPUSH 0x21706f6e\nMSTORE\nPUSH 0\nPUSH 4\nREVERT"},
	{name: "return-grows", src: "PUSH 10\nPUSH 100\nRETURN"},
	{name: "return-empty", src: "PUSH 0\nPUSH 0\nRETURN"},
	{name: "return-empty-far", src: "PUSH 5000\nPUSH 0\nRETURN"},
	{name: "revert-empty-far", src: "PUSH 5000\nPUSH 0\nREVERT"},
	{name: "sha3-empty-far", src: "PUSH 0\nPUSH 7000\nPUSH 0\nSHA3\nMSIZE\nADD\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "sdel-empty-far", src: "PUSH 7000\nPUSH 0\nSDEL\nMSIZE\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "underflow-charged", src: "PUSH 1\nADD", gas: 10},
	{name: "underflow-pop", src: "POP"},
	{name: "underflow-mstore", src: "PUSH 1\nMSTORE"},
	{name: "underflow-sload", src: "PUSH 1\nPUSH 2\nSLOAD"},
	{name: "underflow-sstore", src: "PUSH 1\nPUSH 2\nPUSH 3\nSSTORE"},
	{name: "underflow-dup", src: "PUSH 1\nDUP 2"},
	{name: "underflow-swap", src: "PUSH 1\nSWAP 1"},
	{name: "underflow-retsub", src: "RETSUB"},
	{name: "oog-before-underflow", src: "PUSH 1\nADD", gas: 1},
	{name: "divzero", src: "PUSH 1\nPUSH 0\nDIV"},
	{name: "modzero", src: "PUSH 1\nPUSH 0\nMOD"},
	{name: "shifts", src: "PUSH 1\nPUSH 64\nSHL\nPUSH 0xff00\nPUSH 8\nSHR\nADD\nPUSH 1\nPUSH 63\nSHL\nADD\nNOT\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "signed-compare", src: "PUSH 0xffffffffffffffff\nPUSH 1\nSLT\nPUSH 0xffffffffffffffff\nPUSH 1\nLT\nPUSH 2\nMUL\nADD\nPUSH 1\nPUSH 0xffffffffffffffff\nSGT\nPUSH 4\nMUL\nADD\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "stack-overflow", src: "loop:\nPUSH 1\nJUMP @loop"},
	{name: "stack-overflow-dup", src: "PUSH 1\nloop:\nDUP 1\nJUMP @loop"},
	{name: "call-depth", src: "loop:\nCALLSUB @loop"},
	{name: "call-depth-oog", src: "loop:\nCALLSUB @loop", gas: 301},
	{name: "trap-in-subroutine", src: "PUSH 1\nPUSH 2\nCALLSUB @a\nSTOP\na:\nCALLSUB @b\nRETSUB\nb:\nPUSH 0\nDIV\nRETSUB"},
	{name: "gasleft", src: "GASLEFT\nPUSH 0\nSWAP 1\nMSTORE\nGASLEFT\nPUSH 8\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 16\nRETURN", gas: 5000},
	{name: "args", src: "ARGN\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nARGW\nPUSH 8\nSWAP 1\nMSTORE\nPUSH 2\nPUSH 16\nARG\nPUSH 16\nADD\nPUSH 0\nSWAP 1\nRETURN"},
	{name: "arg-out-of-range", src: "PUSH 4\nPUSH 0\nARG"},
	{name: "argw-out-of-range", src: "PUSH 4\nARGW"},
	{name: "arg-empty", src: "PUSH 3\nPUSH 0\nARG\nMSIZE\nADD\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "arg-empty-far", src: "PUSH 3\nPUSH 5000\nARG\nMSIZE\nADD\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "sload-empty-far", src: "PUSH 0\nPUSH 1\nPUSH 0\nPUSH 0\nSSTORE\nPUSH 0\nPUSH 1\nPUSH 5000\nSLOAD\nADD\nMSIZE\nADD\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN"},
	{name: "arg-oog", src: "PUSH 2\nPUSH 0\nARG", gas: 100},
	{name: "caller-value", src: "PUSH 8\nCALLER\nPOP\nVALUE\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 28\nRETURN"},
	{name: "balances", src: "SELFBAL\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 1\nPUSH 100\nARG\nPOP\nPUSH 100\nPUSH 20\nTRANSFER\nPUSH 100\nBALANCE\nPUSH 8\nSWAP 1\nMSTORE\nSELFBAL\nPUSH 16\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 24\nRETURN"},
	{name: "transfer-insufficient", src: "PUSH 1\nPUSH 100\nARG\nPOP\nPUSH 100\nPUSH 51\nTRANSFER\nSTOP"},
	{name: "sha3", src: "PUSH 0\nPUSH 0x6162636465\nMSTORE\nPUSH 64\nPUSH 0\nPUSH 5\nSHA3\nPUSH 64\nSWAP 1\nRETURN"},
	{name: "sha3-empty", src: "PUSH 0\nPUSH 0\nPUSH 0\nSHA3\nPUSH 0\nSWAP 1\nRETURN"},
	{name: "sha3-oog-in-dst-growth", src: "PUSH 4096\nPUSH 0\nPUSH 0\nSHA3", gas: 40},
	{name: "storage", src: "PUSH 0\nPUSH 0x6b\nMSTORE1\nPUSH 8\nPUSH 0x1122334455\nMSTORE\nPUSH 0\nPUSH 1\nPUSH 8\nPUSH 5\nSSTORE\nPUSH 0\nPUSH 1\nPUSH 200\nSLOAD\nADD\nPUSH 200\nMLOAD\nADD\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 1\nSDEL\nPUSH 0\nPUSH 1\nPUSH 300\nSLOAD\nADD\nPUSH 8\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 16\nRETURN"},
	{name: "sload-oog-on-value", src: "PUSH 0\nPUSH 1\nPUSH 0\nPUSH 100\nSSTORE\nPUSH 0\nPUSH 1\nPUSH 0\nSLOAD", gas: 600},
	{name: "sstore-oog", src: "PUSH 0\nPUSH 1\nPUSH 0\nPUSH 100\nSSTORE", gas: 300},
	{name: "sstore-huge-len-oog", src: "PUSH 0\nPUSH 1\nPUSH 0\nPUSH 0xffffffffff\nSSTORE"},
	{name: "sstore-key-growth-oog", src: "PUSH 64000\nPUSH 32\nPUSH 0\nPUSH 0\nSSTORE", gas: 1000},
	{name: "sdel-oog", src: "PUSH 0\nPUSH 1\nSDEL", gas: 50},
}

// randomProgram draws 20–80 well-formed instructions: valid immediates,
// offsets mostly small, nearly always enough PUSHes ahead of an
// instruction to feed it and jump targets mostly at instruction starts
// that expect no deeper a stack than the jump leaves, so runs go dozens
// of steps deep into every opcode instead of dying on the
// first underflow. Now and then a raw byte or a truncated tail.
func randomProgram(rng *rand.Rand) *evm.Program {
	bigVals := []uint64{4095, 4096, 65536, 1 << 20, 1 << 39, 1 << 40, 1<<40 + 1, math.MaxUint64, math.MaxUint64 - 7, 1 << 63}
	// opcode → {operands popped, results pushed}; unlisted opcodes do
	// neither.
	effect := map[byte][2]int{
		0x01: {2, 1}, 0x02: {2, 1}, 0x03: {2, 1}, 0x04: {2, 1}, 0x05: {2, 1}, 0x06: {2, 1}, 0x07: {2, 1},
		0x08: {2, 1}, 0x0a: {2, 1}, 0x0b: {2, 1}, 0x0c: {2, 1}, 0x0e: {2, 1}, 0x0f: {2, 1}, 0x14: {2, 1},
		0x15: {2, 1}, 0x09: {1, 1}, 0x0d: {1, 1}, 0x10: {0, 1}, 0x11: {1, 0}, 0x12: {0, 1}, 0x21: {1, 0},
		0x30: {1, 1}, 0x31: {2, 0}, 0x32: {1, 1}, 0x33: {2, 0}, 0x34: {0, 1},
		0x40: {3, 2}, 0x41: {4, 0}, 0x42: {2, 0},
		0x50: {0, 1}, 0x51: {2, 1}, 0x52: {1, 1}, 0x53: {1, 1}, 0x54: {0, 1}, 0x55: {0, 1}, 0x56: {1, 1},
		0x57: {2, 0}, 0x60: {2, 0}, 0x61: {2, 0}, 0x62: {3, 1}, 0x63: {0, 1},
	}
	plain := []byte{
		0x01, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x14, 0x15,
		0x11,
		0x30, 0x30, 0x30, 0x31, 0x31, 0x31, 0x32, 0x33, 0x34,
		0x40, 0x41, 0x41, 0x42,
		0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57,
		0x62, 0x63,
	}
	type ins struct {
		op    byte
		imm   uint64
		size  int // immediate bytes
		depth int // operands the generator expects on the stack before it
	}
	var prog []ins
	depth := 0
	push := func() {
		v := uint64(rng.Intn(1200))
		switch rng.Intn(10) {
		case 0:
			v = bigVals[rng.Intn(len(bigVals))]
		case 1, 2, 3:
			v = uint64(rng.Intn(4))
		}
		prog = append(prog, ins{0x10, v, 8, depth})
		depth++
	}
	emit := func(in ins, need int) {
		for feed := rng.Intn(50) > 0; feed && depth < need; {
			push()
		}
		in.depth = depth
		prog = append(prog, in)
		if depth -= effect[in.op][0]; depth < 0 {
			depth = 0
		}
		depth += effect[in.op][1]
	}
	for n := 20 + rng.Intn(60); len(prog) < n; {
		switch r := rng.Intn(100); {
		case r < 20:
			push()
		case r < 30:
			k := 1 + rng.Intn(4)
			if rng.Intn(2) == 0 {
				emit(ins{op: 0x12, imm: uint64(k), size: 1}, k)
			} else {
				emit(ins{op: 0x13, imm: uint64(k), size: 1}, k+1)
			}
		case r < 40:
			op := byte(0x20 + rng.Intn(3))
			emit(ins{op: op, size: 4}, effect[op][0]) // target patched below
		case r < 42:
			emit(ins{op: byte(0x60 + rng.Intn(2))}, 2)
		case r < 43:
			prog = append(prog, ins{op: byte(rng.Intn(256)), depth: depth})
		case r < 45:
			prog = append(prog, ins{op: 0x23, depth: depth}) // RETSUB
		default:
			op := plain[rng.Intn(len(plain))]
			if op == 0x51 || op == 0x52 { // ARG, ARGW: an index that is mostly in range
				prog = append(prog, ins{0x10, uint64(rng.Intn(5)), 8, depth})
				depth++
				if op == 0x51 {
					push()
				}
			}
			emit(ins{op: op}, effect[op][0])
		}
	}
	starts := make([]int, len(prog)+1)
	for i, in := range prog {
		starts[i+1] = starts[i] + 1 + in.size
	}
	code := make([]byte, 0, starts[len(prog)])
	for _, in := range prog {
		code = append(code, in.op)
		switch in.size {
		case 8:
			code = binary.LittleEndian.AppendUint64(code, in.imm)
		case 4:
			// Mostly a target the stack at the jump can feed.
			to := rng.Intn(len(starts))
			for to < len(prog) && prog[to].depth > in.depth-effect[in.op][0] {
				to = rng.Intn(len(starts))
			}
			dst := uint32(starts[to])
			if rng.Intn(12) == 0 {
				dst = uint32(rng.Intn(starts[len(prog)] + 8))
			}
			code = binary.LittleEndian.AppendUint32(code, dst)
		case 1:
			code = append(code, byte(in.imm))
		}
	}
	if rng.Intn(10) == 0 {
		code = code[:len(code)-rng.Intn(4)]
	}
	return &evm.Program{Code: code, Funcs: map[string]uint32{"main": 0}}
}

func TestGoldenTable(t *testing.T) {
	rows := goldenRows(t)
	data, err := os.ReadFile(goldenPath)
	if err != nil && !(*updateGolden && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	var want []string
	if len(data) > 0 {
		want = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	bad := 0
	for i, w := range want[:min(len(want), len(rows))] {
		if got := rows[i]; !goldenRowHolds(got, w) {
			if bad++; bad <= 20 {
				t.Errorf("row %d\n got  %s\n want %s", i, got, w)
			}
		}
	}
	if bad > 20 {
		t.Errorf("... and %d more rows differ", bad-20)
	}
	if len(want) != len(rows) && !(*updateGolden && len(rows) > len(want)) {
		t.Fatalf("golden table has %d rows, this run produced %d", len(want), len(rows))
	}
	if !*updateGolden {
		return
	}
	// -update appends: every existing row stays as it is, so a change
	// that moves one is refused above rather than written.
	if bad > 0 {
		t.Fatalf("-update only appends rows; %d existing rows differ", bad)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(strings.Join(append(want, rows[len(want):]...), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenRowHolds reports whether got passes for the recorded row want.
// The parent panicked (slice bounds) where a program named a zero-length
// range starting past the end of memory; the only thing pinned there is
// that the change does not.
func goldenRowHolds(got, want string) bool {
	if got == want {
		return true
	}
	name, rest, _ := strings.Cut(want, " ")
	return rest == "panic" && strings.HasPrefix(got, name+" ") && !strings.HasSuffix(got, " panic")
}
