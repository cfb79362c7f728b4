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
// on the stack (DUP's and SWAP's depend on n, see operands). Opcodes
// whose gas depends on their operands (storage, ARG, SHA3) are charged
// in their case, after the depth check. opCut costs what the truncated
// PUSH, DUP or SWAP it stands for would. Unlisted bytes are invalid
// opcodes and cost nothing.
var opInfo = [256]struct {
	gas  uint16
	pops uint8
}{
	opADD: {gasBase, 2}, opSUB: {gasBase, 2}, opMUL: {gasBase, 2}, opDIV: {gasBase, 2}, opMOD: {gasBase, 2},
	opLT: {gasBase, 2}, opGT: {gasBase, 2}, opEQ: {gasBase, 2}, opSLT: {gasBase, 2}, opSGT: {gasBase, 2},
	opAND: {gasBase, 2}, opOR: {gasBase, 2}, opXOR: {gasBase, 2}, opSHL: {gasBase, 2}, opSHR: {gasBase, 2},
	opISZERO: {gasBase, 1}, opNOT: {gasBase, 1}, opPUSH: {gasBase, 0}, opPOP: {gasBase, 1},
	opDUP: {gasBase, 0}, opSWAP: {gasBase, 0}, opCut: {gasBase, 0},
	opJUMP: {gasJump, 0}, opJUMPI: {gasJump, 1}, opCALLSUB: {gasJump, 0}, opRETSUB: {gasJump, 0},
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
// Gas, steps and the stack are checked once per block (see ins): at its
// entry run checks that the block's static gas is there, that the stack
// holds the operands it needs and has room for its pushes, charges the
// gas, counts the steps and runs the block with no check per
// instruction. Nothing before the block's last instruction can then
// trap, and the last sees the gas and stack it would have one by one, so
// every figure is the per-instruction machine's. Where the check fails,
// the instruction at pc runs on its own after its own checks, made in
// the order they trap — from m.alone, so the dispatch needs no flag —
// and the next offset is a block entry again. A memory access outside
// memory leaves its block: the rest of the block's gas and steps go
// back, and it grows memory below the loop.
//
// The hot loop makes no calls: memory growth, the State, the output's
// allocation and gas charged by operand are below it, in the call-out
// switch, so the loop's values stay in registers.
func (m *vm) run(code []ins, pc int, gasLimit uint64) Result {
	var (
		gas   = gasLimit
		stack = &m.stack
		sp    int // operands on the stack
		depth int // return addresses on the call stack
		steps uint64
		out   []byte
		err   error
		tab   = code // code, or m.alone while an instruction runs on its own
	)
	pc = min(pc, len(code)-2) // an entry past the code falls off its end
run:
	for {
	hot:
		for {
			b := &tab[pc]
			op := b.op
			if gas >= uint64(b.gas) && sp >= int(b.need) && sp <= int(b.room) {
				gas -= uint64(b.gas)
				steps += uint64(b.n)
			} else {
				op = b.plain
				steps++
				info := &opInfo[op]
				if gas < uint64(info.gas) {
					gas, err = 0, ErrOutOfGas
					break run
				}
				gas -= uint64(info.gas)
				if sp < operands(op, b.imm) {
					err = ErrStackUnderflow
					break run
				}
				if sp == maxStack && (op == opPUSH || op == opDUP) {
					err = ErrStackOverflow
					break run
				}
				// Only a body instruction gets here: a block that starts
				// with any other is that instruction alone, whose checks
				// are the ones that just passed or trapped. It runs from
				// m.alone, whose next entry leads back to the code.
				if op >= opMLOAD && op <= opMSTORE1 {
					break hot
				}
				m.alone[0] = ins{imm: b.imm, op: op}
				for i := 1; i < len(m.alone); i++ {
					m.alone[i] = ins{imm: uint64(pc + i), op: opResume}
				}
				tab, pc = m.alone[:], 0
				b = &tab[0]
			}
			for in := b; ; {
				switch op {
				case opADD:
					stack[sp-2] += stack[sp-1]
					sp--
				case opSUB:
					stack[sp-2] -= stack[sp-1]
					sp--
				case opMUL:
					stack[sp-2] *= stack[sp-1]
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
					stack[sp] = in.imm
					sp++
					pc += 8
				case opDUP:
					stack[sp] = stack[sp-int(in.imm)]
					sp++
					pc++
				case opSWAP:
					n := int(in.imm)
					stack[sp-1], stack[sp-1-n] = stack[sp-1-n], stack[sp-1]
					pc++

				// The four memory accesses leave their block where the range
				// is not inside memory (end < width: the offset wrapped), and
				// call grow when they run on their own.
				case opMLOAD:
					off := stack[sp-1]
					if end := off + 8; end < 8 || end > uint64(len(m.mem)) {
						goto exit
					}
					stack[sp-1] = binary.LittleEndian.Uint64(m.mem[off:])
				case opMSTORE: // off, val
					off := stack[sp-2]
					if end := off + 8; end < 8 || end > uint64(len(m.mem)) {
						goto exit
					}
					binary.LittleEndian.PutUint64(m.mem[off:], stack[sp-1])
					sp -= 2
				case opMLOAD1:
					off := stack[sp-1]
					if off >= uint64(len(m.mem)) {
						goto exit
					}
					stack[sp-1] = uint64(m.mem[off])
				case opMSTORE1: // off, val
					off := stack[sp-2]
					if off >= uint64(len(m.mem)) {
						goto exit
					}
					m.mem[off] = byte(stack[sp-1])
					sp -= 2

				// A block ends at any other instruction: it runs last.
				case opJUMP:
					pc = int(in.imm)
					continue hot
				case opJUMPI:
					if sp--; stack[sp] == 0 {
						pc += 5
					} else {
						pc = int(in.imm)
					}
					continue hot
				case opCALLSUB:
					if depth == maxCallDepth {
						err = ErrStackOverflow
						break run
					}
					m.calls[depth] = pc + 5
					depth++
					pc = int(in.imm)
					continue hot
				case opRETSUB:
					if depth == 0 {
						err = ErrStackUnderflow
						break run
					}
					depth--
					pc = m.calls[depth]
					continue hot
				case opDIV:
					if stack[sp-1] == 0 {
						err = ErrDivByZero
						break run
					}
					stack[sp-2] /= stack[sp-1]
					sp--
					pc++
					continue hot
				case opMOD:
					if stack[sp-1] == 0 {
						err = ErrDivByZero
						break run
					}
					stack[sp-2] %= stack[sp-1]
					sp--
					pc++
					continue hot
				case opSTOP, opEnd:
					break run
				case opCut, opNoDest:
					err = ErrBadJump
					break run
				case opResume:
					tab, pc = code, int(in.imm)
					continue hot
				case opSLOAD, opSSTORE, opSDEL, opARG, opARGW, opCALLER, opBALANCE, opTRANSFER,
					opRETURN, opREVERT, opSHA3, opMSIZE, opARGN, opVALUE, opSELFBAL, opGASLEFT:
					break hot

				// Fused runs.
				case fPushMload:
					if a := in.imm; a+8 > uint64(len(m.mem)) {
						goto push
					}
					stack[sp] = binary.LittleEndian.Uint64(m.mem[in.imm:])
					sp++
					pc += 9
				case fPushAdd:
					stack[sp-1] += in.imm
					pc += 9
				case fPushSub:
					stack[sp-1] -= in.imm
					pc += 9
				case fPushMul:
					stack[sp-1] *= in.imm
					pc += 9
				case fPushSwapMstore:
					if a := in.imm; a+8 > uint64(len(m.mem)) {
						goto push
					}
					binary.LittleEndian.PutUint64(m.mem[in.imm:], stack[sp-1])
					sp--
					pc += 11
				case fSwapMstore:
					off := stack[sp-1]
					if end := off + 8; end < 8 || end > uint64(len(m.mem)) {
						stack[sp-1], stack[sp-2] = stack[sp-2], stack[sp-1]
						pc++
						break
					}
					binary.LittleEndian.PutUint64(m.mem[off:], stack[sp-2])
					sp -= 2
					pc += 2
				case fPushMulAdd:
					stack[sp-1] = stack[sp-1]*in.imm + tab[pc+10].imm
					pc += 19
				case fMloadRetsub:
					off := stack[sp-1]
					if end := off + 8; end < 8 || end > uint64(len(m.mem)) {
						goto exit
					}
					stack[sp-1] = binary.LittleEndian.Uint64(m.mem[off:])
					if depth == 0 {
						err = ErrStackUnderflow
						break run
					}
					depth--
					pc = m.calls[depth]
					continue hot
				case fIszeroJumpi:
					if sp--; stack[sp] == 0 {
						pc = int(in.imm)
					} else {
						pc += 6
					}
					continue hot
				default:
					err = ErrBadOpcode
					break run
				}
				pc++
				in = &tab[pc]
				op = in.op
				continue

				// A fused run whose address is outside memory runs as its
				// instructions: its first here, the next at the next offset.
			push:
				stack[sp] = in.imm
				sp++
				pc += 9
				in = &tab[pc]
				op = in.op
				continue

				// A memory access outside memory leaves its block: the rest
				// of the block's gas and steps go back but its own, whose
				// checks the block's passed, and it calls grow below.
			exit:
				gas += uint64(tab[pc].gas) - gasMem
				steps -= uint64(tab[pc].n) - 1
				break hot
			}
		}

		// Call-outs, and memory accesses that run on their own.
		switch op := tab[pc].op; op {
		case opMLOAD, fMloadRetsub:
			off := stack[sp-1]
			if gas, err = m.grow(off, 8, gas); err != nil {
				break run
			}
			stack[sp-1] = binary.LittleEndian.Uint64(m.mem[off:])
		case opMSTORE: // off, val
			off := stack[sp-2]
			if gas, err = m.grow(off, 8, gas); err != nil {
				break run
			}
			binary.LittleEndian.PutUint64(m.mem[off:], stack[sp-1])
			sp -= 2
		case opMLOAD1:
			off := stack[sp-1]
			if gas, err = m.grow(off, 1, gas); err != nil {
				break run
			}
			stack[sp-1] = uint64(m.mem[off])
		case opMSTORE1: // off, val
			off := stack[sp-2]
			if gas, err = m.grow(off, 1, gas); err != nil {
				break run
			}
			m.mem[off] = byte(stack[sp-1])
			sp -= 2

		case opSLOAD: // keyOff, keyLen, dstOff -> len, found
			var key, dst []byte
			if key, gas, err = m.span(stack[sp-3], stack[sp-2], gas); err != nil {
				break run
			}
			val := m.env.State.GetState(m.env.Contract, key)
			if gas, err = charge(gas, gasSloadOp+gasPerByte*uint64(len(val))); err != nil {
				break run
			}
			if dst, gas, err = m.span(stack[sp-1], uint64(len(val)), gas); err != nil {
				break run
			}
			copy(dst, val)
			stack[sp-3], stack[sp-2] = uint64(len(val)), boolWord(val != nil)
			sp--

		case opSSTORE: // keyOff, keyLen, valOff, valLen
			keyLen, valLen := stack[sp-3], stack[sp-1]
			if gas, err = charge(gas, gasSstoreOp+gasPerByte*(keyLen+valLen)); err != nil {
				break run
			}
			// If the value's growth moves memory, key still reads the
			// bytes it named: the array it points into is never written
			// again.
			var key, val []byte
			if key, gas, err = m.span(stack[sp-4], keyLen, gas); err != nil {
				break run
			}
			if val, gas, err = m.span(stack[sp-2], valLen, gas); err != nil {
				break run
			}
			m.env.State.SetState(m.env.Contract, key, val)
			sp -= 4

		case opSDEL: // keyOff, keyLen
			if gas, err = charge(gas, gasSdelOp); err != nil {
				break run
			}
			var key []byte
			if key, gas, err = m.span(stack[sp-2], stack[sp-1], gas); err != nil {
				break run
			}
			m.env.State.DeleteState(m.env.Contract, key)
			sp -= 2

		case opARG: // i, dstOff -> len
			if stack[sp-2] >= uint64(len(m.env.Args)) {
				err = ErrStackUnderflow
				break run
			}
			arg := m.env.Args[stack[sp-2]]
			if gas, err = charge(gas, gasArg+gasPerByte*uint64(len(arg))); err != nil {
				break run
			}
			var dst []byte
			if dst, gas, err = m.span(stack[sp-1], uint64(len(arg)), gas); err != nil {
				break run
			}
			stack[sp-2] = uint64(copy(dst, arg))
			sp--

		case opARGW: // i -> U64(arg i)
			if stack[sp-1] >= uint64(len(m.env.Args)) {
				err = ErrStackUnderflow
				break run
			}
			stack[sp-1] = types.U64(m.env.Args[stack[sp-1]])

		case opCALLER, opBALANCE: // off -> 20 | balance of the address there
			var addr []byte
			if addr, gas, err = m.span(stack[sp-1], types.AddressSize, gas); err != nil {
				break run
			}
			if op == opCALLER {
				stack[sp-1] = uint64(copy(addr, m.env.Caller[:]))
			} else {
				stack[sp-1] = m.env.State.GetBalance(types.BytesToAddress(addr))
			}

		case opTRANSFER: // addrOff, amount
			var to []byte
			if to, gas, err = m.span(stack[sp-2], types.AddressSize, gas); err != nil {
				break run
			}
			if err = m.env.State.Transfer(m.env.ContractAddr, types.BytesToAddress(to), stack[sp-1]); err != nil {
				break run
			}
			sp -= 2

		case opRETURN, opREVERT: // off, len
			var data []byte
			if data, gas, err = m.span(stack[sp-2], stack[sp-1], gas); err != nil {
				break run
			}
			out = make([]byte, stack[sp-1])
			copy(out, data)
			if op == opREVERT {
				err = ErrRevert
			}
			break run

		case opSHA3: // dstOff, off, len -> 32
			if gas, err = charge(gas, gasSha3+stack[sp-1]/32); err != nil {
				break run
			}
			var data, dst []byte
			if data, gas, err = m.span(stack[sp-2], stack[sp-1], gas); err != nil {
				break run
			}
			h := types.HashData(data)
			if dst, gas, err = m.span(stack[sp-3], types.HashSize, gas); err != nil {
				break run
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
				break run
			}
			stack[sp] = v
			sp++
		}
		pc++
	}
	return Result{GasUsed: gasLimit - gas, Output: out, Err: err, PeakMem: m.peak, Steps: steps}
}
