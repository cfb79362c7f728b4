package evm_test

import (
	"errors"
	"testing"

	"blockbench/internal/evm"
	"blockbench/internal/evm/asm"
	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

func newState(t *testing.T) *state.DB {
	t.Helper()
	b, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	return state.NewDB(b)
}

func run(t *testing.T, src, method string, env *evm.Env) evm.Result {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if env == nil {
		env = &evm.Env{}
	}
	if env.State == nil {
		env.State = newState(t)
	}
	if env.GasLimit == 0 {
		env.GasLimit = 1 << 30
	}
	return evm.Run(prog, method, env)
}

func TestArithmetic(t *testing.T) {
	src := `
.func main
  PUSH 7
  PUSH 5
  ADD        ; 12
  PUSH 3
  MUL        ; 36
  PUSH 10
  SUB        ; 26
  PUSH 4
  DIV        ; 6
  PUSH 0
  SWAP 1
  MSTORE     ; mem[0] = 6
  PUSH 0
  PUSH 8
  RETURN
`
	res := run(t, src, "main", nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := types.U64(reverse8(res.Output)); got != 6 {
		t.Fatalf("result = %d, want 6", got)
	}
}

// reverse8 converts the VM's little-endian memory word to big-endian for
// types.U64.
func reverse8(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[len(b)-1-i]
	}
	return out
}

func TestControlFlowLoop(t *testing.T) {
	// Sum 1..10 via a loop: i at mem[0], acc at mem[8].
	src := `
.func main
  PUSH 0
  PUSH 1
  MSTORE          ; i = 1
loop:
  PUSH 0
  MLOAD
  PUSH 10
  GT              ; i > 10 ?
  JUMPI @done
  PUSH 8
  MLOAD
  PUSH 0
  MLOAD
  ADD
  PUSH 8
  SWAP 1
  MSTORE          ; acc += i
  PUSH 0
  MLOAD
  PUSH 1
  ADD
  PUSH 0
  SWAP 1
  MSTORE          ; i++
  JUMP @loop
done:
  PUSH 8
  PUSH 8
  RETURN
`
	res := run(t, src, "main", nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := types.U64(reverse8(res.Output)); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestSubroutines(t *testing.T) {
	// double(x): x*2, called twice.
	src := `
.func main
  PUSH 5
  CALLSUB @double
  CALLSUB @double ; 20
  PUSH 0
  SWAP 1
  MSTORE
  PUSH 0
  PUSH 8
  RETURN
double:
  PUSH 2
  MUL
  RETSUB
`
	res := run(t, src, "main", nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := types.U64(reverse8(res.Output)); got != 20 {
		t.Fatalf("got %d, want 20", got)
	}
}

func TestStorageRoundTrip(t *testing.T) {
	src := `
.func put
  PUSH 0
  PUSH 0
  ARG            ; copy arg0 (key) to mem[0]; len on stack
  POP
  PUSH 100
  PUSH 1
  ARG            ; copy arg1 (value) to mem[100]
  PUSH 0
  PUSH 8         ; key at 0, len 8
  PUSH 100
  DUP 3          ; val len (still on stack from ARG)...
  POP
  POP
  POP
  STOP
`
	// The snippet above is awkward; use a simpler fixed-length variant.
	src = `
.func put
  PUSH 0
  PUSH 0
  ARG           ; key -> mem[0], push len
  POP
  PUSH 100
  PUSH 1
  ARG           ; val -> mem[100], push len
  PUSH 0
  PUSH 8
  PUSH 100
  PUSH 8
  SSTORE        ; wrong: operand order is key,val ranges
  STOP
`
	// SSTORE pops valLen, valOff, keyLen, keyOff; push order keyOff,
	// keyLen, valOff, valLen. The sequence above pushes extra junk.
	src = `
.func put
  PUSH 0
  PUSH 0
  ARG           ; arg 0 (key) -> mem[0]
  POP           ; drop len (keys are 8 bytes here)
  PUSH 1
  PUSH 100
  ARG           ; arg 1 (val) -> mem[100]
  POP
  PUSH 0        ; keyOff
  PUSH 8        ; keyLen
  PUSH 100      ; valOff
  PUSH 8        ; valLen
  SSTORE
  STOP

.func get
  PUSH 0
  PUSH 0
  ARG
  POP
  PUSH 0        ; keyOff
  PUSH 8        ; keyLen
  PUSH 100      ; dstOff
  SLOAD         ; pushes len, found
  JUMPI @found
  PUSH 0
  PUSH 0
  REVERT
found:
  PUSH 100
  SWAP 1
  RETURN
`
	db := newState(t)
	key := types.U64Bytes(0xdead)
	val := types.U64Bytes(0xbeef)
	res := run(t, src, "put", &evm.Env{State: db, Contract: "kv",
		Args: [][]byte{key, val}, GasLimit: 1 << 20})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	res = run(t, src, "get", &evm.Env{State: db, Contract: "kv",
		Args: [][]byte{key}, GasLimit: 1 << 20})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if types.U64(res.Output) != 0xbeef {
		t.Fatalf("get returned %x", res.Output)
	}
	// Missing key reverts.
	res = run(t, src, "get", &evm.Env{State: db, Contract: "kv",
		Args: [][]byte{types.U64Bytes(1)}, GasLimit: 1 << 20})
	if !errors.Is(res.Err, evm.ErrRevert) {
		t.Fatalf("missing key: err = %v, want revert", res.Err)
	}
}

func TestOutOfGas(t *testing.T) {
	src := `
.func spin
loop:
  JUMP @loop
`
	res := run(t, src, "spin", &evm.Env{GasLimit: 1000, State: newState(t)})
	if !errors.Is(res.Err, evm.ErrOutOfGas) {
		t.Fatalf("err = %v, want out of gas", res.Err)
	}
	if res.GasUsed != 1000 {
		t.Fatalf("gas used = %d, want all 1000", res.GasUsed)
	}
}

func TestMethodDispatch(t *testing.T) {
	src := `
.func a
  PUSH 0
  PUSH 1
  MSTORE1
  PUSH 0
  PUSH 1
  RETURN
.func b
  PUSH 0
  PUSH 2
  MSTORE1
  PUSH 0
  PUSH 1
  RETURN
`
	if out := run(t, src, "a", nil); out.Err != nil || out.Output[0] != 1 {
		t.Fatalf("a: %v %v", out.Output, out.Err)
	}
	if out := run(t, src, "b", nil); out.Err != nil || out.Output[0] != 2 {
		t.Fatalf("b: %v %v", out.Output, out.Err)
	}
	if out := run(t, src, "missing", nil); !errors.Is(out.Err, evm.ErrNoMethod) {
		t.Fatalf("missing method: %v", out.Err)
	}
}

func TestStackUnderflowTrap(t *testing.T) {
	res := run(t, ".func f\n ADD\n", "f", nil)
	if !errors.Is(res.Err, evm.ErrStackUnderflow) {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestDivByZeroTrap(t *testing.T) {
	res := run(t, ".func f\n PUSH 1\n PUSH 0\n DIV\n", "f", nil)
	if !errors.Is(res.Err, evm.ErrDivByZero) {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestMemoryCapTrap(t *testing.T) {
	src := `
.func f
  PUSH 1000000
  PUSH 1
  MSTORE1
  STOP
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res := evm.Run(prog, "f", &evm.Env{State: newState(t), GasLimit: 1 << 30,
		MemFactor: 100, MemCap: 10 << 20})
	if !errors.Is(res.Err, evm.ErrOutOfMemory) {
		t.Fatalf("err = %v, want out of memory", res.Err)
	}
	if res.PeakMem < 10<<20 {
		t.Fatalf("peak mem %d below cap", res.PeakMem)
	}
}

func TestTransferAndBalances(t *testing.T) {
	src := `
.func pay
  PUSH 0
  PUSH 0
  ARG            ; recipient address -> mem[0]
  POP
  PUSH 0         ; addrOff
  PUSH 25        ; amount
  TRANSFER
  SELFBAL
  PUSH 100
  SWAP 1
  MSTORE
  PUSH 100
  PUSH 8
  RETURN
`
	db := newState(t)
	contractAddr := types.BytesToAddress([]byte("contract"))
	db.SetBalance(contractAddr, 100)
	to := types.BytesToAddress([]byte("recipient"))
	res := run(t, src, "pay", &evm.Env{State: db, Contract: "c",
		ContractAddr: contractAddr, Args: [][]byte{to.Bytes()}, GasLimit: 1 << 20})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if db.GetBalance(to) != 25 || db.GetBalance(contractAddr) != 75 {
		t.Fatalf("balances: to=%d self=%d", db.GetBalance(to), db.GetBalance(contractAddr))
	}
	if got := types.U64(reverse8(res.Output)); got != 75 {
		t.Fatalf("SELFBAL returned %d", got)
	}
}

func TestGasAccountingStorageDominates(t *testing.T) {
	srcCompute := `
.func f
  PUSH 1
  PUSH 2
  ADD
  POP
  STOP
`
	srcStore := `
.func f
  PUSH 0
  PUSH 8
  PUSH 8
  PUSH 8
  SSTORE
  STOP
`
	rc := run(t, srcCompute, "f", nil)
	rs := run(t, srcStore, "f", nil)
	if rc.Err != nil || rs.Err != nil {
		t.Fatal(rc.Err, rs.Err)
	}
	if rs.GasUsed <= rc.GasUsed*10 {
		t.Fatalf("storage gas (%d) should dominate compute gas (%d)", rs.GasUsed, rc.GasUsed)
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic": ".func f\n FROB\n",
		"undefined label":  ".func f\n JUMP @nowhere\n",
		"duplicate func":   ".func f\n STOP\n.func f\n STOP\n",
		"duplicate label":  ".func f\nx:\nx:\n STOP\n",
		"no functions":     "label:\n STOP\n",
		"missing operand":  ".func f\n PUSH\n",
		"extra operand":    ".func f\n POP 3\n",
	}
	for name, src := range cases {
		if _, err := asm.Assemble(src); err == nil {
			t.Errorf("%s: assembled without error", name)
		}
	}
}

func TestAssemblerImmediateForms(t *testing.T) {
	src := `
.func f
  PUSH 0x10     ; hex
  PUSH 'A'      ; char
  ADD           ; 16 + 65 = 81
  PUSH 0
  SWAP 1
  MSTORE
  PUSH 0
  PUSH 8
  RETURN
`
	res := run(t, src, "f", nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := types.U64(reverse8(res.Output)); got != 81 {
		t.Fatalf("got %d, want 81", got)
	}
}

func TestPushLabelImmediate(t *testing.T) {
	// PUSH @label loads a code offset as data (e.g. for jump tables).
	src := `
.func f
target:
  PUSH @target
  PUSH 0
  SWAP 1
  MSTORE
  PUSH 0
  PUSH 8
  RETURN
`
	res := run(t, src, "f", nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := types.U64(reverse8(res.Output)); got != 0 {
		t.Fatalf("label offset = %d, want 0", got)
	}
}
