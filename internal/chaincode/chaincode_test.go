package chaincode

import (
	"errors"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

func newStub(t *testing.T) *Stub {
	t.Helper()
	b, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewStub(state.NewDB(b), "cc", types.BytesToAddress([]byte("caller")), 42)
}

func TestStubStateOps(t *testing.T) {
	s := newStub(t)
	if s.GetState([]byte("k")) != nil {
		t.Fatal("ghost value")
	}
	s.PutState([]byte("k"), []byte("v"))
	if string(s.GetState([]byte("k"))) != "v" {
		t.Fatal("put/get failed")
	}
	s.DelState([]byte("k"))
	if s.GetState([]byte("k")) != nil {
		t.Fatal("del failed")
	}
}

func TestStubNamespaceIsolation(t *testing.T) {
	b, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := state.NewDB(b)
	s1 := NewStub(db, "cc1", types.ZeroAddress, 0)
	s2 := NewStub(db, "cc2", types.ZeroAddress, 0)
	s1.PutState([]byte("k"), []byte("one"))
	if s2.GetState([]byte("k")) != nil {
		t.Fatal("chaincodes are not isolated")
	}
}

func TestStubContext(t *testing.T) {
	s := newStub(t)
	if s.Caller != types.BytesToAddress([]byte("caller")) || s.Value != 42 {
		t.Fatal("context lost")
	}
}

func TestStubTransferAndBalance(t *testing.T) {
	s := newStub(t)
	a, b := types.BytesToAddress([]byte("a")), types.BytesToAddress([]byte("b"))
	if err := s.Transfer(types.ZeroAddress, a, 100); err != nil { // mint
		t.Fatal(err)
	}
	if err := s.Transfer(a, b, 60); err != nil {
		t.Fatal(err)
	}
	if s.db.GetBalance(a) != 40 || s.db.GetBalance(b) != 60 {
		t.Fatal("balances wrong")
	}
}

func TestRevertf(t *testing.T) {
	err := Revertf("bad input %d", 7)
	if !errors.Is(err, ErrRevert) {
		t.Fatal("Revertf not wrapping ErrRevert")
	}
}
