package evm_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"blockbench/internal/contracts"
	"blockbench/internal/evm"
	"blockbench/internal/evm/asm"
	"blockbench/internal/types"
)

// recState is a map-backed evm.State that logs every call it receives,
// so two runs can be compared call by call.
type recState struct {
	kv  map[string][]byte
	bal map[types.Address]uint64
	log []string
}

func newRecState() *recState {
	return &recState{kv: map[string][]byte{}, bal: map[types.Address]uint64{}}
}

// clone copies the state and starts an empty log.
func (s *recState) clone() *recState {
	c := newRecState()
	for k, v := range s.kv {
		c.kv[k] = v
	}
	for a, b := range s.bal {
		c.bal[a] = b
	}
	return c
}

func (s *recState) note(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *recState) GetState(c string, key []byte) []byte {
	v := s.kv[c+"\x00"+string(key)]
	s.note("get %s %x -> %x", c, key, v)
	return v
}

func (s *recState) SetState(c string, key, value []byte) {
	s.note("set %s %x %x", c, key, value)
	s.kv[c+"\x00"+string(key)] = bytes.Clone(value)
}

func (s *recState) DeleteState(c string, key []byte) {
	s.note("del %s %x", c, key)
	delete(s.kv, c+"\x00"+string(key))
}

func (s *recState) GetBalance(a types.Address) uint64 {
	s.note("bal %x -> %d", a, s.bal[a])
	return s.bal[a]
}

func (s *recState) Transfer(from, to types.Address, amount uint64) error {
	s.note("pay %x %x %d", from, to, amount)
	if !from.IsZero() {
		if s.bal[from] < amount {
			return errors.New("insufficient funds")
		}
		s.bal[from] -= amount
	}
	s.bal[to] += amount
	return nil
}

// oracleCall is one call checked against the reference: prog's method
// under env, on a copy of st.
type oracleCall struct {
	name   string
	prog   *evm.Program
	method string
	env    evm.Env
	st     *recState
}

// outcome is what a run reports and the State calls it made.
type outcome struct {
	res evm.Result
	log []string
}

func (o outcome) equal(p outcome) bool {
	a, b := o.res, p.res
	return a.GasUsed == b.GasUsed && a.Steps == b.Steps && a.PeakMem == b.PeakMem &&
		fmt.Sprint(a.Err) == fmt.Sprint(b.Err) && bytes.Equal(a.Output, b.Output) && slices.Equal(o.log, p.log)
}

func (o outcome) String() string {
	return fmt.Sprintf("gas %d steps %d peak %d err %v out %x calls %q",
		o.res.GasUsed, o.res.Steps, o.res.PeakMem, o.res.Err, o.res.Output, o.log)
}

// gasLimits is every limit from 0 to full, with a fixed stride past the
// first 2 000, and full itself. Under -short (the race job) it takes
// every seventh below 2 000 too.
func gasLimits(full uint64) []uint64 {
	step := uint64(1)
	if testing.Short() {
		step = 7
	}
	var gs []uint64
	for g := uint64(0); g < full; g += step {
		if g > 2000 {
			g += 97 - step
		}
		gs = append(gs, g)
	}
	return append(gs, full)
}

// check runs c under the reference at its own limit, then under evm.Run
// and the reference at every limit from 0 to what that run used, and
// reports the limits where the two differ. It returns the number of
// runs compared.
func (c oracleCall) check(t *testing.T) int {
	t.Helper()
	run := func(f func(*evm.Program, string, *evm.Env) evm.Result, gas uint64) outcome {
		env, st := c.env, c.st.clone()
		env.State, env.GasLimit = st, gas
		return outcome{f(c.prog, c.method, &env), st.log}
	}
	env, st := c.env, c.st.clone()
	env.State = st
	full := evm.RunReference(c.prog, c.method, &env).GasUsed
	bad := 0
	limits := gasLimits(full)
	for _, gas := range limits {
		got, want := run(evm.Run, gas), run(evm.RunReference, gas)
		if got.equal(want) {
			continue
		}
		if bad++; bad <= 3 {
			t.Errorf("%s at gas %d:\n got  %s\n want %s", c.name, gas, got, want)
		}
	}
	return len(limits)
}

// TestRunMatchesReference is the differential test of the interpreter:
// every registry contract method, the golden table's 400 seeded random
// programs and hand-built programs at the edges of a block, each at
// every gas limit up to its full use, must report the same gas, steps,
// peak memory, error and output, and make the same State calls, under
// evm.Run (decoded table, fused runs, blocks checked once) as under the
// stepwise reference.
func TestRunMatchesReference(t *testing.T) {
	var calls []oracleCall
	calls = append(calls, registryCalls(t)...)
	calls = append(calls, edgeCalls(t)...)
	calls = append(calls, randomCalls()...)
	runs := 0
	for _, c := range calls {
		runs += c.check(t)
	}
	t.Logf("%d calls, %d runs each way", len(calls), runs)
}

// registryCalls calls every EVM method of every registry contract, each
// after the calls before it in its contract's sequence have run, so
// reads find what writes left.
func registryCalls(t *testing.T) []oracleCall {
	alice, bob := goldenAddr("alice"), goldenAddr("bob")
	type call struct {
		method        string
		caller        types.Address
		value         uint64
		args          [][]byte
		mem, memLimit int64 // MemFactor, MemCap
	}
	key, val := []byte("user123456789012345!"), bytes.Repeat([]byte{7, 9}, 50)
	a1, a2, dom, id := u64(1), u64(2), u64(42), u64(1)
	seqs := map[string][]call{
		"ycsb": {{method: "write", args: [][]byte{key, val}}, {method: "read", args: [][]byte{key}},
			{method: "read", args: [][]byte{[]byte("nope")}}, {method: "delete", args: [][]byte{key}},
			{method: "write", args: [][]byte{[]byte("k2"), val[:10]}, mem: 262, memLimit: 320 << 20}},
		"smallbank": {{method: "depositChecking", args: [][]byte{a1, u64(100)}}, {method: "transactSavings", args: [][]byte{a1, u64(50)}},
			{method: "sendPayment", args: [][]byte{a1, a2, u64(30)}}, {method: "sendPayment", args: [][]byte{a1, a2, u64(1000)}},
			{method: "writeCheck", args: [][]byte{a1, u64(10)}}, {method: "amalgamate", args: [][]byte{a1, a2}},
			{method: "getBalance", args: [][]byte{a2}}},
		"etherid": {{method: "register", caller: alice, args: [][]byte{dom, u64(100)}}, {method: "register", caller: bob, args: [][]byte{dom, u64(1)}},
			{method: "query", args: [][]byte{dom}}, {method: "transfer", caller: bob, args: [][]byte{dom, bob.Bytes()}},
			{method: "buy", caller: bob, value: 150, args: [][]byte{dom}}, {method: "transfer", caller: bob, args: [][]byte{dom, alice.Bytes()}}},
		"doubler": {{method: "enter", caller: alice, value: 100}, {method: "enter", caller: bob, value: 120},
			{method: "enter", caller: alice, value: 300}, {method: "enter", caller: bob}},
		"wavespresale": {{method: "newSale", caller: alice, args: [][]byte{id, u64(100)}}, {method: "newSale", caller: alice, args: [][]byte{id, u64(5)}},
			{method: "total"}, {method: "transferSale", caller: alice, args: [][]byte{id, bob.Bytes()}}, {method: "getSale", args: [][]byte{id}}},
		"ioheavy":   {{method: "write", args: [][]byte{u64(20), u64(9999)}}, {method: "read", args: [][]byte{u64(20), u64(9999)}}},
		"donothing": {{method: "invoke"}},
		"cpuheavy":  {{method: "sort", args: [][]byte{u64(40)}}, {method: "sort", args: [][]byte{u64(60)}, mem: 17, memLimit: 6<<20 + 17*2000}},
	}
	var out []oracleCall
	for _, spec := range contracts.All() {
		if spec.EVM == nil {
			continue
		}
		seq, ok := seqs[spec.Name]
		if !ok {
			t.Fatalf("no call sequence for %s", spec.Name)
		}
		called := map[string]bool{}
		st := newRecState()
		st.bal[alice], st.bal[bob] = 1000, 1000
		for i, c := range seq {
			called[c.method] = true
			env := evm.Env{
				Contract: spec.Name, ContractAddr: types.BytesToAddress([]byte("contract:" + spec.Name)),
				Caller: c.caller, Value: c.value, Args: c.args, GasLimit: 1 << 40,
				MemBase: 6 << 20, MemFactor: c.mem, MemCap: c.memLimit,
			}
			if c.value > 0 {
				if err := st.Transfer(c.caller, env.ContractAddr, c.value); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, oracleCall{fmt.Sprintf("%s/%d-%s", spec.Name, i, c.method), spec.EVM, c.method, env, st.clone()})
			env.State = st
			evm.Run(spec.EVM, c.method, &env)
		}
		methods := make([]string, 0, len(spec.EVM.Funcs))
		for m := range spec.EVM.Funcs {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		for _, m := range methods {
			if !called[m] {
				t.Errorf("%s.%s is not called", spec.Name, m)
			}
		}
	}
	return out
}

// edgeCalls are programs at the edges of a block: jumps into the middle
// of one and into an immediate, too few operands or too little room at a
// block's entry and inside it, memory growth and GASLEFT inside a
// straight line, and the traps that end one.
func edgeCalls(t *testing.T) []oracleCall {
	const ret = "\nPUSH 0\nSWAP 1\nMSTORE\nPUSH 0\nPUSH 8\nRETURN" // the top operand as output
	srcs := []struct{ name, src string }{
		{"jump-mid-block", "PUSH 2\nPUSH 3\nJUMP @mid\nPUSH 100\nPUSH 200\nmid:\nADD\nPUSH 7\nMUL\nPUSH 1\nSUB" + ret},
		{"jumpi-mid-block", "PUSH 2\nPUSH 3\nPUSH 1\nJUMPI @mid\nPUSH 100\nmid:\nADD\nPUSH 0\nJUMPI @mid\nPUSH 4\nADD" + ret},
		{"callsub-mid-block", "PUSH 5\nCALLSUB @f\nPUSH 6\nMUL" + ret + "\nf:\nPUSH 1\nADD\nRETSUB"},
		{"underflow-at-entry", "PUSH 1\nJUMP @b\nb:\nADD\nSTOP"},
		{"underflow-in-block", "PUSH 1\nJUMP @b\nb:\nPUSH 2\nADD\nADD\nSTOP"},
		{"underflow-swap-at-entry", "PUSH 1\nPUSH 2\nJUMP @b\nb:\nSWAP 2\nSTOP"},
		{"underflow-dup-in-block", "PUSH 1\nPUSH 2\nJUMP @b\nb:\nDUP 2\nDUP 4\nSTOP"},
		{"underflow-jumpi-at-entry", "JUMP @b\nb:\nJUMPI @b"},
		{"overflow-at-entry", "loop:\nPUSH 1\nPUSH 2\nPOP\nJUMP @loop"},
		{"overflow-dup-in-block", "PUSH 1\nloop:\nDUP 1\nDUP 1\nPOP\nJUMP @loop"},
		{"overflow-msize", "loop:\nMSIZE\nJUMP @loop"},
		{"growth-in-block", "PUSH 0\nPUSH 7\nMSTORE\nPUSH 100\nMLOAD\nPUSH 5\nADD\nPUSH 200\nSWAP 1\nMSTORE\nPUSH 200\nMLOAD" + ret},
		{"growth-fused-in-block", "PUSH 9\nPUSH 300\nSWAP 1\nMSTORE\nPUSH 300\nMLOAD\nPUSH 600\nMLOAD\nADD\nPUSH 40\nADD\nSWAP 1\nMSTORE\nPUSH 8\nMLOAD1" + ret},
		{"growth-byte-in-block", "PUSH 70\nPUSH 5\nMSTORE1\nPUSH 70\nMLOAD1\nPUSH 90\nMLOAD1\nADD" + ret},
		{"growth-wraps", "PUSH 1\nPUSH 0xfffffffffffffffc\nSWAP 1\nMSTORE\nSTOP"},
		{"gasleft-in-line", "PUSH 1\nPUSH 2\nADD\nGASLEFT\nADD\nPUSH 3\nMUL" + ret},
		{"div-in-line", "PUSH 7\nPUSH 2\nDIV\nPUSH 3\nMUL\nPUSH 0\nDIV\nSTOP"},
		{"mod-in-line", "PUSH 7\nPUSH 4\nMOD\nPUSH 3\nMUL\nPUSH 3\nMOD" + ret},
		{"storage-in-line", "PUSH 0\nPUSH 0x6b\nMSTORE1\nPUSH 0\nPUSH 1\nPUSH 8\nPUSH 5\nSSTORE\nPUSH 0\nPUSH 1\nPUSH 64\nSLOAD\nADD\nPUSH 64\nMLOAD\nADD" + ret},
		{"loop", "PUSH 0\nloop:\nPUSH 1\nADD\nDUP 1\nPUSH 50\nLT\nISZERO\nJUMPI @done\nJUMP @loop\ndone:" + ret},
	}
	var out []oracleCall
	env := evm.Env{Contract: "edge", ContractAddr: goldenAddr("contract:edge"), Caller: goldenAddr("alice"), Value: 9,
		Args: [][]byte{u64(5), u64(6)}, GasLimit: 100000}
	st := newRecState()
	st.bal[env.ContractAddr] = 50
	add := func(name string, prog *evm.Program, env evm.Env) {
		out = append(out, oracleCall{"edge/" + name, prog, "main", env, st})
	}
	for _, s := range srcs {
		prog, err := asm.Assemble(".func main\n" + s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		add(s.name, prog, env)
		capped := env
		capped.MemBase, capped.MemFactor, capped.MemCap = 1000, 7, 3000
		add(s.name+"-memcap", prog, capped)
	}
	raw := func(name string, code ...byte) {
		add(name, &evm.Program{Code: code, Funcs: map[string]uint32{"main": 0}}, env)
	}
	// JUMP 6 lands inside the PUSH at 5, whose immediate holds PUSH 1
	// (its last byte past the first immediate), ADD and an ISZERO; JUMPI.
	raw("jump-into-immediate", 0x20, 6, 0, 0, 0, 0x10, 0x10, 1, 0, 0, 0, 0, 0, 0, 0x10, 0x01, 0x09, 0x21, 5, 0, 0, 0, 0x00)
	raw("jump-into-jump", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x20, 12, 0, 0, 0, 0x21, 0x00, 0x00, 0x00, 0x00)
	raw("jump-into-dup", 0x10, 3, 0, 0, 0, 0, 0, 0, 0, 0x20, 15, 0, 0, 0, 0x12, 0x01, 0x11, 0x00)
	raw("truncated-in-block", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x10, 2, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x12)
	raw("dup-0-in-block", 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0x12, 0, 0x00)
	for _, b := range []byte{0x1c, 0x1d, 0x1e, 0x1f, 0x24, 0x28, 0x2c} { // bytes the table uses for its own codes
		raw(fmt.Sprintf("decoded-only-byte-%#x", b), 0x10, 1, 0, 0, 0, 0, 0, 0, 0, b, 0x00)
	}
	return out
}

// randomCalls are the golden table's 400 seeded random programs under
// the same environments.
func randomCalls() []oracleCall {
	env := evm.Env{
		Contract: "adhoc", ContractAddr: goldenAddr("contract:adhoc"), Caller: goldenAddr("alice"), Value: 9,
		Args: [][]byte{u64(5), goldenAddr("bob").Bytes(), goldenVal(), {}},
	}
	st := newRecState()
	st.bal[env.ContractAddr] = 50
	var out []oracleCall
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 400; i++ {
		e := env
		e.GasLimit = 2000 + uint64(rng.Intn(6000))
		if i%3 == 0 {
			e.MemBase, e.MemFactor, e.MemCap = 1000, 7, 100_000
		}
		out = append(out, oracleCall{fmt.Sprintf("rand/%d", i), randomProgram(rng), "main", e, st})
	}
	return out
}

// goldenVal is the golden table's 100-byte argument.
func goldenVal() []byte {
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i * 7)
	}
	return val
}
