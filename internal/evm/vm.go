// Package evm implements the gas-metered stack virtual machine that the
// Ethereum and Parity presets execute contracts on, standing in for the
// Ethereum Virtual Machine: "every code instruction executed in Ethereum
// costs a certain amount of gas ... the code must keep track of
// intermediate states and reverse them if the execution runs out of gas."
//
// The machine operates on 64-bit words with byte-addressed, zero-
// initialized memory that grows (and is charged) on demand. Contract
// storage keys and values are arbitrary byte strings accessed through
// memory ranges. Programs are containers of named functions (see
// Program); the transaction's method selector picks the entry point,
// mirroring how chaincode dispatches on a function name.
package evm

import (
	"errors"
	"fmt"
	"sync"

	"blockbench/internal/types"
)

// Opcodes. Operands noted as (immediates); stack effects note pop order
// (top first) — arguments are pushed left-to-right by convention.
const (
	opSTOP   = 0x00
	opADD    = 0x01 // pops b, a; pushes a+b
	opSUB    = 0x02 // pops b, a; pushes a-b
	opMUL    = 0x03
	opDIV    = 0x04 // pops b, a; pushes a/b (b==0 traps)
	opMOD    = 0x05
	opLT     = 0x06 // pops b, a; pushes a<b
	opGT     = 0x07
	opEQ     = 0x08
	opISZERO = 0x09
	opAND    = 0x0a
	opOR     = 0x0b
	opXOR    = 0x0c
	opNOT    = 0x0d
	opSHL    = 0x0e // pops n, a; pushes a<<n
	opSHR    = 0x0f
	opSLT    = 0x14 // pops b, a; pushes int64(a) < int64(b)
	opSGT    = 0x15

	opPUSH = 0x10 // (u64) pushes immediate
	opPOP  = 0x11
	opDUP  = 0x12 // (u8 n) duplicates n-th from top (1 = top)
	opSWAP = 0x13 // (u8 n) swaps top with (n+1)-th

	opJUMP    = 0x20 // (u32 dest)
	opJUMPI   = 0x21 // (u32 dest) pops cond; jumps if cond != 0
	opCALLSUB = 0x22 // (u32 dest) pushes return address on call stack
	opRETSUB  = 0x23

	opMLOAD   = 0x30 // pops off; pushes u64 at memory[off:off+8]
	opMSTORE  = 0x31 // pops val, off; stores 8 bytes
	opMLOAD1  = 0x32 // pops off; pushes memory[off]
	opMSTORE1 = 0x33 // pops val, off; stores 1 byte
	opMSIZE   = 0x34

	opSLOAD  = 0x40 // pops dstOff, keyLen, keyOff; pushes len, found
	opSSTORE = 0x41 // pops valLen, valOff, keyLen, keyOff
	opSDEL   = 0x42 // pops keyLen, keyOff

	opARGN     = 0x50 // pushes number of call args
	opARG      = 0x51 // pops dstOff, i; copies arg i to memory; pushes len
	opARGW     = 0x52 // pops i; pushes U64(arg i)
	opCALLER   = 0x53 // pops dstOff; writes 20-byte caller; pushes 20
	opVALUE    = 0x54 // pushes tx value
	opSELFBAL  = 0x55
	opBALANCE  = 0x56 // pops addrOff; pushes balance of address at memory
	opTRANSFER = 0x57 // pops amount, addrOff; pays out of contract account

	opRETURN  = 0x60 // pops len, off; halts returning memory[off:off+len]
	opREVERT  = 0x61 // pops len, off; halts, reverting, with message
	opSHA3    = 0x62 // pops len, off, dstOff; writes 32-byte hash; pushes 32
	opGASLEFT = 0x63
)

// Execution errors. ErrRevert carries the contract's message via Result.
var (
	ErrOutOfGas       = errors.New("evm: out of gas")
	ErrOutOfMemory    = errors.New("evm: out of memory")
	ErrStackUnderflow = errors.New("evm: stack underflow")
	ErrStackOverflow  = errors.New("evm: stack overflow")
	ErrBadJump        = errors.New("evm: jump out of range")
	ErrBadOpcode      = errors.New("evm: invalid opcode")
	ErrRevert         = errors.New("evm: execution reverted")
	ErrNoMethod       = errors.New("evm: method not found")
	ErrDivByZero      = errors.New("evm: division by zero")
)

const (
	maxStack     = 1024
	maxCallDepth = 256
)

// State is the world-state surface the VM needs; *state.DB satisfies it.
type State interface {
	GetState(contract string, key []byte) []byte
	SetState(contract string, key, value []byte)
	DeleteState(contract string, key []byte)
	GetBalance(addr types.Address) uint64
	Transfer(from, to types.Address, amount uint64) error
}

// Env carries per-invocation context.
type Env struct {
	State        State
	Contract     string        // storage namespace
	ContractAddr types.Address // the contract's own account
	Caller       types.Address
	Value        uint64
	Args         [][]byte
	GasLimit     uint64

	// Memory model: the simulated resident footprint is MemBase +
	// MemFactor × (actual VM memory bytes); execution traps with
	// ErrOutOfMemory when it exceeds MemCap (0 = unlimited). This models
	// the very different per-word overheads the paper measured for geth
	// and Parity without allocating terabytes.
	MemBase   int64
	MemFactor int64
	MemCap    int64
}

// Result reports the outcome of a VM run.
type Result struct {
	GasUsed uint64
	Output  []byte
	Err     error
	// PeakMem is the simulated peak resident footprint in bytes.
	PeakMem int64
	// Steps counts executed instructions (execution-layer ops metric).
	Steps uint64
}

// vm is one machine. Machines are pooled: Run takes one, resets what a
// program can observe (memory length, the peak; stack and call depth are
// locals of run) and puts it back on every exit. What a program cannot
// observe — the arrays behind the stacks, the capacity behind memory — is
// the harness's and is reused. sync.Pool drops idle machines at GC, so a
// large memory is not pinned past the burst that needed it.
type vm struct {
	stack [maxStack]uint64
	calls [maxCallDepth]int
	alone [10]ins // an instruction that runs on its own, then opResume
	mem   []byte
	env   Env
	peak  int64
}

var vmPool = sync.Pool{New: func() any { return new(vm) }}

// Run executes the named method of prog under env. env is copied, not
// retained, so a literal passed by address stays on the caller's stack.
func Run(prog *Program, method string, env *Env) Result {
	entry, ok := prog.Funcs[method]
	if !ok {
		return Result{Err: fmt.Errorf("%w: %q", ErrNoMethod, method)}
	}
	m := vmPool.Get().(*vm)
	res := m.exec(prog, int(entry), env)
	vmPool.Put(m)
	return res
}

// exec is one call on this machine: reset, run, let go of the caller's
// state and arguments so an idle pooled machine keeps nothing alive.
func (m *vm) exec(prog *Program, entry int, env *Env) Result {
	m.mem, m.env, m.peak = m.mem[:0], *env, 0
	if m.env.MemFactor <= 0 {
		m.env.MemFactor = 1
	}
	m.notePeak()
	res := m.run(prog.decoded(), entry, env.GasLimit)
	m.env = Env{}
	return res
}

func (m *vm) notePeak() {
	sim := m.env.MemBase + int64(len(m.mem))*m.env.MemFactor
	if sim > m.peak {
		m.peak = sim
	}
}

// charge takes g out of gas; running out leaves none.
func charge(gas, g uint64) (uint64, error) {
	if gas < g {
		return 0, ErrOutOfGas
	}
	return gas - g, nil
}

// grow ensures memory covers [off, off+n), charging expansion to gas
// (the remainder is returned) and enforcing the simulated memory cap.
// Everything a program or the memory model can observe — gas per new
// word, MSIZE, the simulated footprint, the cap, the sanity bound — is a
// function of the word-rounded length. Capacity doubles underneath, so
// extending costs the bytes added, not the bytes already held.
func (m *vm) grow(off, n, gas uint64) (uint64, error) {
	if n == 0 {
		return gas, nil
	}
	end := off + n
	if end < off || end > 1<<40 { // hard sanity bound on actual memory
		return gas, ErrOutOfMemory
	}
	if end <= uint64(len(m.mem)) {
		return gas, nil
	}
	// Round up to 32-byte words, charge per new word.
	newWords := (end + 31) / 32
	oldWords := (uint64(len(m.mem)) + 31) / 32
	gas, err := charge(gas, (newWords-oldWords)*gasMemWord)
	if err != nil {
		return gas, err
	}
	newLen := newWords * 32
	if m.env.MemCap > 0 {
		sim := m.env.MemBase + int64(newLen)*m.env.MemFactor
		if sim > m.env.MemCap {
			m.peak = sim
			return gas, ErrOutOfMemory
		}
	}
	if newLen > uint64(cap(m.mem)) {
		grown := make([]byte, newLen, max(newLen, 2*uint64(cap(m.mem))))
		copy(grown, m.mem)
		m.mem = grown
	} else { // reused capacity: a pooled machine's, so not zero
		clear(m.mem[len(m.mem):newLen])
		m.mem = m.mem[:newLen]
	}
	m.notePeak()
	return gas, nil
}

// span grows memory to cover [off, off+n) and returns that range. A
// zero-length range is empty wherever it starts: it neither grows
// memory nor depends on how much capacity happens to lie past the end.
func (m *vm) span(off, n, gas uint64) ([]byte, uint64, error) {
	if n == 0 {
		return nil, gas, nil
	}
	gas, err := m.grow(off, n, gas)
	if err != nil {
		return nil, gas, err
	}
	return m.mem[off : off+n], gas, nil
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
