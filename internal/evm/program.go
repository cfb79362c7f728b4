package evm

import (
	"encoding/binary"
	"sync"
)

// Program is a compiled contract: flat bytecode plus a function table
// mapping method selectors to entry offsets. Execution starts at the
// offset of the transaction's method and runs until STOP/RETURN/REVERT
// or a trap. Code must not change after the first Run: that Run decodes
// it into a table the later ones read.
type Program struct {
	Code  []byte
	Funcs map[string]uint32

	once sync.Once
	tab  []ins
}

// ins is the instruction that starts at one code offset, decoded, and
// the straight-line block that starts with it. The table has an entry
// per offset, so a jump to any offset — into an immediate or into the
// middle of a block — decodes exactly as the bytes do, and two entries
// past the code: opEnd, where falling off the end lands, and opNoDest,
// where every jump past the end lands.
//
// A block is a run of body instructions (see body) up to and including
// the first instruction that is not one. gas, n, need and room are what
// run checks once at the block's entry in place of the per-instruction
// checks; an offset inside a block describes the rest of it, which is
// what run gives back when a memory access leaves the block early.
type ins struct {
	imm   uint64 // PUSH's value, DUP/SWAP's n, a jump's target
	gas   uint32 // the block's static gas
	n     uint16 // the block's instructions
	need  uint16 // operands the block needs on entry; never where it cannot run as one
	room  uint16 // the deepest stack on entry at which no PUSH or DUP in the block overflows
	op    uint8  // the opcode, or one of the decoded-only codes below
	plain uint8  // op, or the first instruction of the fused run op names
}

// Decoded-only codes. A raw byte with one of these values is an invalid
// opcode, so it decodes to 0xff, another; they sit among the opcodes so
// that run's switch stays dense enough to compile to a jump table.
//
// Fused runs are the commonest short runs in the CPUHeavy sort, which a
// block runs in one dispatch. Where a run's first instruction runs on
// its own (see run), it runs as that instruction (ins.plain).
const (
	fPushMload      = 0x24 + iota // PUSH a; MLOAD
	fPushAdd                      // PUSH k; ADD
	fPushSub                      // PUSH k; SUB
	fPushMul                      // PUSH k; MUL
	fPushSwapMstore               // PUSH a; SWAP 1; MSTORE
	fIszeroJumpi                  // ISZERO; JUMPI t, with t as its immediate
	fSwapMstore                   // SWAP 1; MSTORE
	fPushMulAdd                   // PUSH k; MUL; PUSH c; ADD
	fMloadRetsub                  // MLOAD; RETSUB
)

// The table's own entries.
const (
	opEnd    = 0x1c + iota // the offset past the code: the run ends as at STOP, without a step
	opNoDest               // one past that, where a jump past the end lands: ErrBadJump, without a step
	opCut                  // PUSH, DUP or SWAP whose immediate runs past the end: ErrBadJump
	opResume               // after an instruction that ran on its own: back to the code
)

// maxFusedAddr bounds a fused run's constant address: memory never
// reaches 1<<40 (grow's sanity bound), so a+8 cannot wrap below it.
const maxFusedAddr = 1 << 40

// never is a block's need where the block cannot run as one: more
// operands or pushes than the stack holds, or more instructions than n
// counts.
const never = 0xffff

// decoded returns the program's table, building it on the first call.
func (p *Program) decoded() []ins {
	p.once.Do(func() { p.tab = decode(p.Code) })
	return p.tab
}

// decode builds the table back to front, so the block at an offset is
// its instruction and, for a body instruction, the block at the next.
// A truncated jump decodes as a JUMP, and every jump target past the
// end as the opNoDest entry: each traps as the bytes do, after its gas.
// DUP 0 and SWAP 0 ask for more operands than the stack can hold.
func decode(code []byte) []ins {
	end := len(code)
	tab := make([]ins, end+2)
	tab[end] = ins{op: opEnd, room: maxStack}
	tab[end+1] = ins{op: opNoDest, room: maxStack}
	for pc := end - 1; pc >= 0; pc-- {
		in, rest := &tab[pc], code[pc+1:]
		switch op := code[pc]; {
		case op >= opEnd && op <= opResume, op >= fPushMload && op <= fMloadRetsub:
			in.op = 0xff
		case op == opPUSH && len(rest) >= 8:
			in.op, in.imm = op, binary.LittleEndian.Uint64(rest)
		case op == opPUSH || (op == opDUP || op == opSWAP) && len(rest) == 0:
			in.op = opCut
		case op == opDUP || op == opSWAP:
			if in.op, in.imm = op, uint64(rest[0]); in.imm == 0 {
				in.imm = maxStack + 1
			}
		case op == opJUMP || op == opJUMPI || op == opCALLSUB:
			in.op, in.imm = op, uint64(end+1)
			if len(rest) < 4 {
				in.op = opJUMP
			} else if dst := binary.LittleEndian.Uint32(rest); uint64(dst) <= uint64(end) {
				in.imm = uint64(dst)
			}
		default:
			in.op = op
		}
		gas, n, need, grow := uint32(opInfo[in.op].gas), 1, operands(in.op, in.imm), 0
		if size, net, ok := body(in.op); ok {
			next := &tab[pc+size]
			gas, n = gas+next.gas, n+int(next.n)
			need = max(need, int(next.need)-net)
			grow = max(0, net+maxStack-int(next.room))
		}
		if need > maxStack || grow > maxStack || n >= never {
			in.need = never
			continue
		}
		in.gas, in.n, in.need, in.room = gas, uint16(n), uint16(need), uint16(maxStack-grow)
	}
	for pc := range code {
		tab[pc].plain = tab[pc].op
		tab[pc].op = fuse(tab, pc)
	}
	return tab
}

// fuse names the fused run that starts at pc, or returns the opcode
// there. Every instruction of a run is in the block it starts, and its
// constant address is one the run can use without wrapping.
func fuse(tab []ins, pc int) uint8 {
	in, next := &tab[pc], tab[pc+1:]
	switch {
	case in.op == opSWAP && in.imm == 1 && next[1].op == opMSTORE:
		return fSwapMstore
	case in.op == opISZERO && next[0].op == opJUMPI:
		in.imm = next[0].imm
		return fIszeroJumpi
	case in.op == opMLOAD && next[0].op == opRETSUB:
		return fMloadRetsub
	case in.op != opPUSH:
		return in.op
	case next[8].op == opSWAP && next[8].imm == 1 && next[10].op == opMSTORE && in.imm < maxFusedAddr:
		return fPushSwapMstore
	case next[8].op == opMLOAD && in.imm < maxFusedAddr:
		return fPushMload
	case next[8].op == opADD:
		return fPushAdd
	case next[8].op == opSUB:
		return fPushSub
	case next[8].op == opMUL && next[9].op == opPUSH && next[18].op == opADD:
		return fPushMulAdd
	case next[8].op == opMUL:
		return fPushMul
	}
	return in.op
}

// body reports whether an instruction can run inside a block, and its
// size and net stack change there. A body instruction cannot trap and
// does not read gas once its operands and room are there — a memory
// access outside memory leaves the block (see run).
func body(op uint8) (size, net int, ok bool) {
	switch op {
	case opADD, opSUB, opMUL, opLT, opGT, opEQ, opSLT, opSGT, opAND, opOR, opXOR, opSHL, opSHR, opPOP:
		return 1, -1, true
	case opISZERO, opNOT, opMLOAD, opMLOAD1:
		return 1, 0, true
	case opMSTORE, opMSTORE1:
		return 1, -2, true
	case opPUSH:
		return 9, 1, true
	case opDUP:
		return 2, 1, true
	case opSWAP:
		return 2, 0, true
	}
	return 0, 0, false
}

// operands is how deep the stack must be for an instruction not to
// underflow: DUP n reads the n-th operand, SWAP n the (n+1)-th.
func operands(op uint8, imm uint64) int {
	switch op {
	case opDUP:
		return int(imm)
	case opSWAP:
		return int(imm) + 1
	}
	return int(opInfo[op].pops)
}
