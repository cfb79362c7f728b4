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

// ins is the instruction that starts at one code offset, decoded. The
// table has an entry per offset, so a jump to any offset — into an
// immediate or into a fused run — decodes exactly as the bytes do.
type ins struct {
	imm uint64 // the immediate: PUSH's value, DUP/SWAP's n, a jump's target; 0 where it runs past the end
	op  uint16 // the fused run that starts here, else the byte at this offset
}

// Fused runs: straight-line sequences the interpreter runs in one
// dispatch when nothing in them can trap (see run). They are the
// commonest runs in the CPUHeavy sort. Their codes lie past the byte
// range, so a raw byte is never one.
const (
	fPushMload      = 0x100 + iota // PUSH a; MLOAD
	fPushAdd                       // PUSH k; ADD
	fPushSub                       // PUSH k; SUB
	fPushMul                       // PUSH k; MUL
	fPushSwapMstore                // PUSH a; SWAP 1; MSTORE
	fIszeroJumpi                   // ISZERO; JUMPI t
	fSwapMstore                    // SWAP 1; MSTORE
)

// maxFusedAddr bounds a fused run's constant address: memory never
// reaches 1<<40 (grow's sanity bound), so a+8 cannot wrap below it.
const maxFusedAddr = 1 << 40

// decoded returns the program's table, building it on the first call.
func (p *Program) decoded() []ins {
	p.once.Do(func() { p.tab = decode(p.Code) })
	return p.tab
}

func decode(code []byte) []ins {
	tab := make([]ins, len(code))
	for pc, op := range code {
		in, rest := &tab[pc], code[pc+1:]
		in.op = uint16(op)
		switch {
		case op == opPUSH && len(rest) >= 8:
			in.imm = binary.LittleEndian.Uint64(rest)
		case (op == opDUP || op == opSWAP) && len(rest) >= 1:
			in.imm = uint64(rest[0])
		case (op == opJUMP || op == opJUMPI || op == opCALLSUB) && len(rest) >= 4:
			in.imm = uint64(binary.LittleEndian.Uint32(rest))
		}
	}
	for pc := range code {
		if f := fused(code, tab, pc); f != 0 {
			tab[pc].op = f
		}
	}
	return tab
}

// fused names the run that starts at pc, or 0. A run's instructions
// lie whole inside the code, and its constant address or jump target
// is one the run can use without a trap; what depends on the machine
// (gas, stack depth, memory size) run checks each time.
func fused(code []byte, tab []ins, pc int) uint16 {
	at := func(i int, b ...byte) bool { // code[pc+i:] starts with b
		return pc+i+len(b) <= len(code) && string(code[pc+i:pc+i+len(b)]) == string(b)
	}
	switch op, imm := code[pc], tab[pc].imm; {
	case op == opSWAP && at(1, 1, opMSTORE):
		return fSwapMstore
	case op == opISZERO && at(1, opJUMPI) && pc+6 <= len(code) && tab[pc+1].imm <= uint64(len(code)):
		return fIszeroJumpi
	case op != opPUSH:
		return 0
	case at(9, opSWAP, 1, opMSTORE) && imm < maxFusedAddr:
		return fPushSwapMstore
	case at(9, opMLOAD) && imm < maxFusedAddr:
		return fPushMload
	case at(9, opADD):
		return fPushAdd
	case at(9, opSUB):
		return fPushSub
	case at(9, opMUL):
		return fPushMul
	}
	return 0
}
