package evm

import (
	"encoding/binary"

	"blockbench/internal/types"
)

// Gas schedule. Storage is the dominant cost, as in the real EVM; the
// absolute values are simplified but preserve the ordering the paper's
// workloads depend on (I/O ≫ compute ≫ stack traffic).
const (
	gasBase     = 1   // stack, arithmetic, logic
	gasJump     = 2   // control flow
	gasMem      = 3   // memory load/store
	gasMemWord  = 1   // per 32-byte word of memory growth
	gasSloadOp  = 50  // storage read, plus gasPerByte per value byte
	gasSstoreOp = 200 // storage write, plus gasPerByte per key+value byte
	gasSdelOp   = 100
	gasPerByte  = 2
	gasTransfer = 400
	gasSha3     = 30
	gasArg      = 3
)

// TxIntrinsicGas is charged for every transaction before execution, as in
// Ethereum (21000).
const TxIntrinsicGas = 21000

// opInfo is the part of an instruction every opcode shares: the gas
// charged before anything else happens, then the operands that must be
// on the stack. Opcodes whose gas depends on their operands (storage,
// ARG, SHA3) are charged in their case, after the depth check; JUMPI
// decodes its immediate before it looks at the stack. Unlisted bytes are
// invalid opcodes and cost nothing.
var opInfo = [256]struct {
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

// run is the interpreter loop: it executes the decoded table from pc and
// reports the RETURN payload, or an error for traps and reverts (revert
// payload alongside ErrRevert). pc, gas, the step count and the stack
// depth live in locals for the whole run and reach the Result at the one
// exit below the loop; every trap sets err and breaks to it.
//
// Where a fused run starts, it runs in one dispatch if its guard holds:
// gas for the whole run, the stack depth it needs and room for its PUSH,
// memory that already covers its address (the table admits no address
// that can wrap and no jump target past the end). Nothing in it can
// then trap, and it adds to gas, steps, the stack and memory what its
// instructions would one by one. Otherwise the plain instruction at pc
// runs, and the run's next offset is dispatched on its own.
func (m *vm) run(tab []ins, pc int, gasLimit uint64) Result {
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
	for pc < len(tab) { // falling off the end behaves like STOP
		in := &tab[pc]
		op := in.op
		if op > 0xff {
			switch op {
			case fPushMload:
				if a := in.imm; gas >= gasBase+gasMem && sp < maxStack && a+8 <= uint64(len(m.mem)) {
					stack[sp] = binary.LittleEndian.Uint64(m.mem[a:])
					sp, gas, steps, pc = sp+1, gas-(gasBase+gasMem), steps+2, pc+10
					continue
				}
			case fPushAdd, fPushSub, fPushMul:
				if gas >= 2*gasBase && sp >= 1 && sp < maxStack {
					switch op {
					case fPushAdd:
						stack[sp-1] += in.imm
					case fPushSub:
						stack[sp-1] -= in.imm
					default:
						stack[sp-1] *= in.imm
					}
					gas, steps, pc = gas-2*gasBase, steps+2, pc+10
					continue
				}
			case fPushSwapMstore:
				if a := in.imm; gas >= 2*gasBase+gasMem && sp >= 1 && sp < maxStack && a+8 <= uint64(len(m.mem)) {
					binary.LittleEndian.PutUint64(m.mem[a:], stack[sp-1])
					sp, gas, steps, pc = sp-1, gas-(2*gasBase+gasMem), steps+3, pc+12
					continue
				}
			case fIszeroJumpi:
				if gas >= gasBase+gasJump && sp >= 1 {
					if sp--; stack[sp] == 0 {
						pc = int(tab[pc+1].imm)
					} else {
						pc += 6
					}
					gas, steps = gas-(gasBase+gasJump), steps+2
					continue
				}
				op = opISZERO
			case fSwapMstore:
				if gas >= gasBase+gasMem && sp >= 2 && stack[sp-1] < maxFusedAddr && stack[sp-1]+8 <= uint64(len(m.mem)) {
					binary.LittleEndian.PutUint64(m.mem[stack[sp-1]:], stack[sp-2])
					sp, gas, steps, pc = sp-2, gas-(gasBase+gasMem), steps+2, pc+3
					continue
				}
				op = opSWAP
			}
			if op > 0xff { // a run that starts with PUSH
				op = opPUSH
			}
		}
		pc++
		steps++
		info := &opInfo[uint8(op)]
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
			if pc+8 > len(tab) {
				err = ErrBadJump
				break loop
			}
			if sp == maxStack {
				err = ErrStackOverflow
				break loop
			}
			stack[sp] = in.imm
			sp++
			pc += 8

		case opDUP, opSWAP:
			if pc == len(tab) {
				err = ErrBadJump
				break loop
			}
			n := int(in.imm)
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
			if pc+4 > len(tab) {
				err = ErrBadJump
				break loop
			}
			dst := in.imm
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
			if dst > uint64(len(tab)) {
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
