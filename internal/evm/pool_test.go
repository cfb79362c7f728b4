package evm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"blockbench/internal/types"
)

// code assembles opcodes (byte), PUSH immediates (uint64) and jump
// targets (uint32) into bytecode; the assembler proper imports this
// package, so an internal test cannot use it.
func code(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			out = append(out, byte(v))
		case uint64:
			out = binary.LittleEndian.AppendUint64(out, v)
		case uint32:
			out = binary.LittleEndian.AppendUint32(out, v)
		}
	}
	return out
}

type noState struct{}

func (noState) GetState(string, []byte) []byte                      { return nil }
func (noState) SetState(string, []byte, []byte)                     {}
func (noState) DeleteState(string, []byte)                          {}
func (noState) GetBalance(types.Address) uint64                     { return 0 }
func (noState) Transfer(types.Address, types.Address, uint64) error { return nil }
func execOn(m *vm, prog []byte, args ...[]byte) Result {
	return m.exec(prog, 0, &Env{State: noState{}, Args: args, GasLimit: 1 << 30})
}

// TestPooledMachineStartsClean drives one machine the way the pool does,
// call after call, and checks that nothing a program can observe survives
// from the call before: memory a previous run filled with 0xFF reads as
// zero and MSIZE starts at 0 however the next run grows into the reused
// capacity, and a run that trapped three subroutines deep with operands
// on the stack leaves both stacks empty.
func TestPooledMachineStartsClean(t *testing.T) {
	const size = 1 << 16
	ff := bytes.Repeat([]byte{0xff}, size)
	dirty := code(opPUSH, uint64(0), opPUSH, uint64(0), opARG, opSTOP) // arg 0 -> mem[0:size]
	m := new(vm)
	fill := func() {
		t.Helper()
		if res := execOn(m, dirty, ff); res.Err != nil || res.PeakMem != size {
			t.Fatalf("fill: %+v", res)
		}
		if cap(m.mem) < size || m.mem[:size][size-1] != 0xff {
			t.Fatal("the machine did not keep its dirty memory: the test checks nothing")
		}
		if m.env.State != nil || m.env.Args != nil {
			t.Fatal("an idle machine still holds the caller's state or arguments")
		}
	}

	// MSIZE first, then one growth over the whole dirty range.
	fill()
	res := execOn(m, code(opMSIZE, opPUSH, uint64(0), opPUSH, uint64(size), opRETURN))
	if res.Err != nil || res.PeakMem != size || !bytes.Equal(res.Output, make([]byte, size)) {
		t.Fatalf("whole-range read after a dirty run: err=%v peak=%d, output zero=%v",
			res.Err, res.PeakMem, bytes.Equal(res.Output, make([]byte, size)))
	}
	res = execOn(m, code(opMSIZE, opPUSH, uint64(0), opSWAP, 1, opMSTORE, opPUSH, uint64(0), opPUSH, uint64(8), opRETURN))
	if res.Err != nil || !bytes.Equal(res.Output, make([]byte, 8)) {
		t.Fatalf("MSIZE at the start of a reused machine = %x, %v", res.Output, res.Err)
	}

	// Growth in steps — a word, a far byte, an unaligned load, then the
	// rest — each exposing a different stretch of the dirty capacity.
	fill()
	res = execOn(m, code(
		opPUSH, uint64(0), opMLOAD,
		opPUSH, uint64(5000), opMLOAD1, opADD,
		opPUSH, uint64(size-9), opMLOAD, opADD,
		opPUSH, uint64(40), opSWAP, 1, opMSTORE, // mem[40:48] = sum of the three loads
		opPUSH, uint64(0), opPUSH, uint64(size), opRETURN))
	if res.Err != nil || !bytes.Equal(res.Output, make([]byte, size)) {
		t.Fatalf("stepwise growth after a dirty run saw stale bytes (err=%v)", res.Err)
	}

	// A partial write must not resurrect what lay beyond it.
	fill()
	res = execOn(m, code(opPUSH, uint64(64), opPUSH, uint64(0x1122334455667788), opMSTORE,
		opPUSH, uint64(0), opPUSH, uint64(4096), opRETURN))
	want := make([]byte, 4096)
	binary.LittleEndian.PutUint64(want[64:], 0x1122334455667788)
	if res.Err != nil || !bytes.Equal(res.Output, want) {
		t.Fatalf("write then wider read after a dirty run: err=%v", res.Err)
	}

	// Trap three subroutines deep with operands on the stack...
	a, b, c := uint32(24), uint32(29), uint32(34)
	trap := code(opPUSH, uint64(7), opPUSH, uint64(8), opCALLSUB, a, opSTOP, // 0..23
		opCALLSUB, b, // 24
		opCALLSUB, c, // 29
		opPUSH, uint64(0), opDIV) // 34
	if res := execOn(m, trap); !errors.Is(res.Err, ErrDivByZero) {
		t.Fatalf("trap run: %+v", res)
	}
	// ...then the next run finds no return address and no operand.
	for name, prog := range map[string][]byte{
		"RETSUB": code(opRETSUB), "POP": code(opPOP), "DUP 1": code(opDUP, 1),
		"SWAP 1": code(opPUSH, uint64(1), opSWAP, 1), "ADD": code(opPUSH, uint64(1), opADD),
	} {
		if res := execOn(m, prog); !errors.Is(res.Err, ErrStackUnderflow) {
			t.Errorf("%s on a reused machine after a trap: %v, want stack underflow", name, res.Err)
		}
	}
}

// TestZeroLengthRanges pins the one behaviour this machine does not share
// with the one before it: a zero-length range is empty wherever it starts.
// The old interpreter sliced memory at the offset and panicked when that
// lay past the end (a ycsb write of an empty value did it); now no such
// range touches, grows or depends on the capacity of memory.
func TestZeroLengthRanges(t *testing.T) {
	m := new(vm)
	execOn(m, code(opPUSH, uint64(0), opPUSH, uint64(0), opARG, opSTOP), make([]byte, 4096)) // leave capacity behind
	for name, prog := range map[string][]byte{
		"RETURN": code(opPUSH, uint64(100), opPUSH, uint64(0), opRETURN),
		"REVERT": code(opPUSH, uint64(1<<50), opPUSH, uint64(0), opREVERT),
		"SDEL":   code(opPUSH, uint64(5000), opPUSH, uint64(0), opSDEL, opSTOP),
		"SSTORE": code(opPUSH, uint64(9000), opPUSH, uint64(0), opPUSH, uint64(1<<60), opPUSH, uint64(0), opSSTORE, opSTOP),
		"SLOAD":  code(opPUSH, uint64(100), opPUSH, uint64(0), opPUSH, uint64(200), opSLOAD, opSTOP),
		"SHA3":   code(opPUSH, uint64(0), opPUSH, uint64(7000), opPUSH, uint64(0), opSHA3, opSTOP),
		"ARG":    code(opPUSH, uint64(1), opPUSH, uint64(100), opARG, opSTOP),
	} {
		res := execOn(m, prog, []byte("x"), nil)
		if res.Err != nil && !errors.Is(res.Err, ErrRevert) {
			t.Errorf("%s over an empty range: %v", name, res.Err)
		}
		wantPeak := int64(0)
		if name == "SHA3" {
			wantPeak = 32 // the digest it wrote at 0
		}
		if res.PeakMem != wantPeak || len(res.Output) != 0 {
			t.Errorf("%s over an empty range: peak %d, output %x", name, res.PeakMem, res.Output)
		}
	}
}
