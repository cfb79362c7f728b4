package evm

import (
	"encoding/binary"
	"fmt"

	"blockbench/internal/types"
)

// RunReference runs prog's method the way the interpreter did before it
// decoded programs: one instruction at a time, straight from the bytes,
// with every check made before every instruction — no decoded table, no
// fused runs, no blocks. Everything a Run reports and every State call
// it makes must be the same.
func RunReference(prog *Program, method string, env *Env) Result {
	entry, ok := prog.Funcs[method]
	if !ok {
		return Result{Err: fmt.Errorf("%w: %q", ErrNoMethod, method)}
	}
	m := &vm{env: *env}
	if m.env.MemFactor <= 0 {
		m.env.MemFactor = 1
	}
	m.notePeak()
	return m.reference(prog.Code, int(entry), env.GasLimit)
}

// refInfo is the gas charged before anything else and the operands
// checked next, per opcode; JUMPI looks at the stack only after it has
// read its immediate. Unlisted bytes are invalid and cost nothing.
var refInfo = [256]struct {
	gas  uint16
	pops uint8
}{
	opADD: {gasBase, 2}, opSUB: {gasBase, 2}, opMUL: {gasBase, 2}, opDIV: {gasBase, 2}, opMOD: {gasBase, 2},
	opLT: {gasBase, 2}, opGT: {gasBase, 2}, opEQ: {gasBase, 2}, opSLT: {gasBase, 2}, opSGT: {gasBase, 2},
	opAND: {gasBase, 2}, opOR: {gasBase, 2}, opXOR: {gasBase, 2}, opSHL: {gasBase, 2}, opSHR: {gasBase, 2},
	opISZERO: {gasBase, 1}, opNOT: {gasBase, 1}, opPUSH: {gasBase, 0}, opPOP: {gasBase, 1},
	opDUP: {gasBase, 0}, opSWAP: {gasBase, 0},
	opJUMP: {gasJump, 0}, opJUMPI: {gasJump, 0}, opCALLSUB: {gasJump, 0}, opRETSUB: {gasJump, 0},
	opMLOAD: {gasMem, 1}, opMSTORE: {gasMem, 2}, opMLOAD1: {gasMem, 1}, opMSTORE1: {gasMem, 2}, opMSIZE: {gasBase, 0},
	opSLOAD: {0, 3}, opSSTORE: {0, 4}, opSDEL: {0, 2},
	opARGN: {gasBase, 0}, opARG: {0, 2}, opARGW: {gasBase, 1}, opCALLER: {gasBase, 1}, opVALUE: {gasBase, 0},
	opSELFBAL: {gasBase, 0}, opBALANCE: {gasBase, 1}, opTRANSFER: {gasTransfer, 2},
	opRETURN: {gasBase, 2}, opREVERT: {gasBase, 2}, opSHA3: {0, 3}, opGASLEFT: {gasBase, 0},
}

// reference is the stepwise loop.
func (m *vm) reference(code []byte, pc int, gasLimit uint64) Result {
	var (
		gas   = gasLimit
		stack = &m.stack
		sp    int // operands on the stack
		depth int // return addresses on the call stack
		steps uint64
		out   []byte
		err   error
	)
loop:
	for pc < len(code) { // falling off the end behaves like STOP
		op := code[pc]
		pc++
		steps++
		info := &refInfo[op]
		if gas < uint64(info.gas) {
			gas, err = 0, ErrOutOfGas
			break
		}
		gas -= uint64(info.gas)
		if sp < int(info.pops) {
			err = ErrStackUnderflow
			break
		}

		switch op {
		case opSTOP:
			break loop
		case opADD:
			stack[sp-2] += stack[sp-1]
			sp--
		case opSUB:
			stack[sp-2] -= stack[sp-1]
			sp--
		case opMUL:
			stack[sp-2] *= stack[sp-1]
			sp--
		case opDIV, opMOD:
			if stack[sp-1] == 0 {
				err = ErrDivByZero
				break loop
			}
			if op == opDIV {
				stack[sp-2] /= stack[sp-1]
			} else {
				stack[sp-2] %= stack[sp-1]
			}
			sp--
		case opLT:
			stack[sp-2] = boolWord(stack[sp-2] < stack[sp-1])
			sp--
		case opGT:
			stack[sp-2] = boolWord(stack[sp-2] > stack[sp-1])
			sp--
		case opEQ:
			stack[sp-2] = boolWord(stack[sp-2] == stack[sp-1])
			sp--
		case opSLT:
			stack[sp-2] = boolWord(int64(stack[sp-2]) < int64(stack[sp-1]))
			sp--
		case opSGT:
			stack[sp-2] = boolWord(int64(stack[sp-2]) > int64(stack[sp-1]))
			sp--
		case opAND:
			stack[sp-2] &= stack[sp-1]
			sp--
		case opOR:
			stack[sp-2] |= stack[sp-1]
			sp--
		case opXOR:
			stack[sp-2] ^= stack[sp-1]
			sp--
		case opSHL:
			stack[sp-2] <<= stack[sp-1] // 0 from 64 bits up: Go's rule is the VM's
			sp--
		case opSHR:
			stack[sp-2] >>= stack[sp-1]
			sp--
		case opISZERO:
			stack[sp-1] = boolWord(stack[sp-1] == 0)
		case opNOT:
			stack[sp-1] = ^stack[sp-1]
		case opPOP:
			sp--

		case opPUSH:
			if pc+8 > len(code) {
				err = ErrBadJump
				break loop
			}
			if sp == maxStack {
				err = ErrStackOverflow
				break loop
			}
			stack[sp] = binary.LittleEndian.Uint64(code[pc:])
			sp++
			pc += 8

		case opDUP, opSWAP:
			if pc == len(code) {
				err = ErrBadJump
				break loop
			}
			n := int(code[pc])
			pc++
			reach := n // DUP copies the n-th operand, SWAP reaches the (n+1)-th
			if op == opSWAP {
				reach = n + 1
			}
			if n < 1 || reach > sp {
				err = ErrStackUnderflow
				break loop
			}
			if op == opSWAP {
				stack[sp-1], stack[sp-reach] = stack[sp-reach], stack[sp-1]
				continue
			}
			if sp == maxStack {
				err = ErrStackOverflow
				break loop
			}
			stack[sp] = stack[sp-n]
			sp++

		case opJUMP, opJUMPI, opCALLSUB:
			if pc+4 > len(code) {
				err = ErrBadJump
				break loop
			}
			dst := uint64(binary.LittleEndian.Uint32(code[pc:]))
			pc += 4
			if op == opJUMPI {
				if sp == 0 {
					err = ErrStackUnderflow
					break loop
				}
				if sp--; stack[sp] == 0 {
					continue
				}
			}
			if op == opCALLSUB && depth == maxCallDepth {
				err = ErrStackOverflow
				break loop
			}
			if dst > uint64(len(code)) {
				err = ErrBadJump
				break loop
			}
			if op == opCALLSUB {
				m.calls[depth] = pc
				depth++
			}
			pc = int(dst)

		case opRETSUB:
			if depth == 0 {
				err = ErrStackUnderflow
				break loop
			}
			depth--
			pc = m.calls[depth]

		// The four memory accesses call grow only when the range is not
		// already inside memory (end < width: the offset wrapped).
		case opMLOAD:
			off := stack[sp-1]
			if end := off + 8; end < 8 || end > uint64(len(m.mem)) {
				if gas, err = m.grow(off, 8, gas); err != nil {
					break loop
				}
			}
			stack[sp-1] = binary.LittleEndian.Uint64(m.mem[off:])
		case opMSTORE: // off, val
			off := stack[sp-2]
			if end := off + 8; end < 8 || end > uint64(len(m.mem)) {
				if gas, err = m.grow(off, 8, gas); err != nil {
					break loop
				}
			}
			binary.LittleEndian.PutUint64(m.mem[off:], stack[sp-1])
			sp -= 2
		case opMLOAD1:
			off := stack[sp-1]
			if off >= uint64(len(m.mem)) {
				if gas, err = m.grow(off, 1, gas); err != nil {
					break loop
				}
			}
			stack[sp-1] = uint64(m.mem[off])
		case opMSTORE1: // off, val
			off := stack[sp-2]
			if off >= uint64(len(m.mem)) {
				if gas, err = m.grow(off, 1, gas); err != nil {
					break loop
				}
			}
			m.mem[off] = byte(stack[sp-1])
			sp -= 2

		case opSLOAD: // keyOff, keyLen, dstOff -> len, found
			var key, dst []byte
			if key, gas, err = m.span(stack[sp-3], stack[sp-2], gas); err != nil {
				break loop
			}
			val := m.env.State.GetState(m.env.Contract, key)
			if gas, err = charge(gas, gasSloadOp+gasPerByte*uint64(len(val))); err != nil {
				break loop
			}
			if dst, gas, err = m.span(stack[sp-1], uint64(len(val)), gas); err != nil {
				break loop
			}
			copy(dst, val)
			stack[sp-3], stack[sp-2] = uint64(len(val)), boolWord(val != nil)
			sp--

		case opSSTORE: // keyOff, keyLen, valOff, valLen
			keyLen, valLen := stack[sp-3], stack[sp-1]
			if gas, err = charge(gas, gasSstoreOp+gasPerByte*(keyLen+valLen)); err != nil {
				break loop
			}
			// If the value's growth moves memory, key still reads the
			// bytes it named: the array it points into is never written
			// again.
			var key, val []byte
			if key, gas, err = m.span(stack[sp-4], keyLen, gas); err != nil {
				break loop
			}
			if val, gas, err = m.span(stack[sp-2], valLen, gas); err != nil {
				break loop
			}
			m.env.State.SetState(m.env.Contract, key, val)
			sp -= 4

		case opSDEL: // keyOff, keyLen
			if gas, err = charge(gas, gasSdelOp); err != nil {
				break loop
			}
			var key []byte
			if key, gas, err = m.span(stack[sp-2], stack[sp-1], gas); err != nil {
				break loop
			}
			m.env.State.DeleteState(m.env.Contract, key)
			sp -= 2

		case opARG: // i, dstOff -> len
			if stack[sp-2] >= uint64(len(m.env.Args)) {
				err = ErrStackUnderflow
				break loop
			}
			arg := m.env.Args[stack[sp-2]]
			if gas, err = charge(gas, gasArg+gasPerByte*uint64(len(arg))); err != nil {
				break loop
			}
			var dst []byte
			if dst, gas, err = m.span(stack[sp-1], uint64(len(arg)), gas); err != nil {
				break loop
			}
			stack[sp-2] = uint64(copy(dst, arg))
			sp--

		case opARGW: // i -> U64(arg i)
			if stack[sp-1] >= uint64(len(m.env.Args)) {
				err = ErrStackUnderflow
				break loop
			}
			stack[sp-1] = types.U64(m.env.Args[stack[sp-1]])

		case opCALLER, opBALANCE: // off -> 20 | balance of the address there
			var addr []byte
			if addr, gas, err = m.span(stack[sp-1], types.AddressSize, gas); err != nil {
				break loop
			}
			if op == opCALLER {
				stack[sp-1] = uint64(copy(addr, m.env.Caller[:]))
			} else {
				stack[sp-1] = m.env.State.GetBalance(types.BytesToAddress(addr))
			}

		case opTRANSFER: // addrOff, amount
			var to []byte
			if to, gas, err = m.span(stack[sp-2], types.AddressSize, gas); err != nil {
				break loop
			}
			if err = m.env.State.Transfer(m.env.ContractAddr, types.BytesToAddress(to), stack[sp-1]); err != nil {
				break loop
			}
			sp -= 2

		case opRETURN, opREVERT: // off, len
			var data []byte
			if data, gas, err = m.span(stack[sp-2], stack[sp-1], gas); err != nil {
				break loop
			}
			out = make([]byte, stack[sp-1])
			copy(out, data)
			if op == opREVERT {
				err = ErrRevert
			}
			break loop

		case opSHA3: // dstOff, off, len -> 32
			if gas, err = charge(gas, gasSha3+stack[sp-1]/32); err != nil {
				break loop
			}
			var data, dst []byte
			if data, gas, err = m.span(stack[sp-2], stack[sp-1], gas); err != nil {
				break loop
			}
			h := types.HashData(data)
			if dst, gas, err = m.span(stack[sp-3], types.HashSize, gas); err != nil {
				break loop
			}
			stack[sp-3] = uint64(copy(dst, h[:]))
			sp -= 2

		case opMSIZE, opARGN, opVALUE, opSELFBAL, opGASLEFT:
			var v uint64
			switch op {
			case opGASLEFT:
				v = gas
			case opMSIZE:
				v = uint64(len(m.mem))
			case opARGN:
				v = uint64(len(m.env.Args))
			case opVALUE:
				v = m.env.Value
			case opSELFBAL:
				v = m.env.State.GetBalance(m.env.ContractAddr)
			}
			if sp == maxStack {
				err = ErrStackOverflow
				break loop
			}
			stack[sp] = v
			sp++

		default:
			err = ErrBadOpcode
			break loop
		}
	}
	return Result{GasUsed: gasLimit - gas, Output: out, Err: err, PeakMem: m.peak, Steps: steps}
}
