package evm

// Program is a compiled contract: flat bytecode plus a function table
// mapping method selectors to entry offsets. Execution starts at the
// offset of the transaction's method and runs until STOP/RETURN/REVERT
// or a trap.
type Program struct {
	Code  []byte
	Funcs map[string]uint32
}
