package contracts

import (
	"errors"
	"math/rand"
	"testing"

	"blockbench/internal/chaincode"
	"blockbench/internal/evm"
	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// world is a dual test harness: the same logical operation is applied to
// an EVM contract and its chaincode port, and observable results are
// compared — the two implementations of each Table 1 contract must agree.
type world struct {
	t    *testing.T
	name string
	spec Spec
	edb  *state.DB // EVM side
	cdb  *state.DB // chaincode side
}

func newWorld(t *testing.T, contract string) *world {
	t.Helper()
	spec, err := Lookup(contract)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *state.DB {
		b, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
		if err != nil {
			t.Fatal(err)
		}
		return state.NewDB(b)
	}
	return &world{t: t, name: contract, spec: spec, edb: mk(), cdb: mk()}
}

func (w *world) contractAddr() types.Address {
	return types.BytesToAddress([]byte("contract:" + w.name))
}

// evmInvoke runs the EVM version only.
func (w *world) evmInvoke(caller types.Address, value uint64, method string, args ...[]byte) ([]byte, error) {
	if value > 0 {
		if err := w.edb.Transfer(caller, w.contractAddr(), value); err != nil {
			return nil, err
		}
	}
	res := evm.Run(w.spec.EVM, method, &evm.Env{
		State: w.edb, Contract: w.name, ContractAddr: w.contractAddr(),
		Caller: caller, Value: value, Args: args, GasLimit: 1 << 40,
	})
	return res.Output, res.Err
}

// ccInvoke runs the chaincode version only.
func (w *world) ccInvoke(caller types.Address, value uint64, method string, args ...[]byte) ([]byte, error) {
	stub := chaincode.NewStub(w.cdb, w.name, caller, value)
	stub.ContractAddr = w.contractAddr()
	return w.spec.Chaincode.Invoke(stub, method, args)
}

// both runs the op on both sides and checks success/failure agreement.
func (w *world) both(caller types.Address, value uint64, method string, args ...[]byte) ([]byte, []byte, error) {
	w.t.Helper()
	eo, ee := w.evmInvoke(caller, value, method, args...)
	co, ce := w.ccInvoke(caller, value, method, args...)
	if (ee == nil) != (ce == nil) {
		w.t.Fatalf("%s.%s: EVM err=%v, chaincode err=%v", w.name, method, ee, ce)
	}
	return eo, co, ee
}

func addr(s string) types.Address { return types.BytesToAddress([]byte(s)) }

func TestRegistryComplete(t *testing.T) {
	// Table 1: every contract present, with the right implementations.
	want := map[string]bool{ // name -> has EVM version
		"ycsb": true, "smallbank": true, "etherid": true, "doubler": true,
		"wavespresale": true, "versionkv": false, "ioheavy": true,
		"cpuheavy": true, "donothing": true,
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d contracts, want %d", len(all), len(want))
	}
	for _, s := range all {
		hasEVM, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected contract %q", s.Name)
		}
		if (s.EVM != nil) != hasEVM {
			t.Fatalf("%s: EVM presence = %v, want %v", s.Name, s.EVM != nil, hasEVM)
		}
		if s.Chaincode == nil {
			t.Fatalf("%s: missing chaincode", s.Name)
		}
	}
	if _, err := Lookup("nonsense"); err == nil {
		t.Fatal("Lookup of unknown contract succeeded")
	}
}

// TestAllSortedAndLookupRoundTrips: All is strictly sorted by name (so
// no name appears twice), Lookup finds every entry, and All hands out a
// copy of the table.
func TestAllSortedAndLookupRoundTrips(t *testing.T) {
	all := All()
	for i, s := range all {
		if i > 0 && all[i-1].Name >= s.Name {
			t.Fatalf("All() not strictly sorted at %d: %q, %q", i, all[i-1].Name, s.Name)
		}
		got, err := Lookup(s.Name)
		if err != nil || got.Name != s.Name || got.EVM != s.EVM {
			t.Fatalf("Lookup(%q) = %+v, %v", s.Name, got, err)
		}
	}
	all[0].Name = "clobbered"
	if All()[0].Name == "clobbered" {
		t.Fatal("All() returned the table itself, not a copy")
	}
}

func TestYCSBBothImplementations(t *testing.T) {
	w := newWorld(t, "ycsb")
	alice := addr("alice")
	key := []byte("user123456789012345!") // 20 bytes, YCSB-style
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i)
	}
	if _, _, err := w.both(alice, 0, "write", key, val); err != nil {
		t.Fatal(err)
	}
	eo, co, err := w.both(alice, 0, "read", key)
	if err != nil {
		t.Fatal(err)
	}
	if string(eo) != string(val) || string(co) != string(val) {
		t.Fatalf("read mismatch: evm=%x cc=%x", eo[:8], co[:8])
	}
	// Reading a missing key must fail identically.
	_, _, err = w.both(alice, 0, "read", []byte("nope"))
	if err == nil {
		t.Fatal("missing key read succeeded")
	}
	if _, _, err := w.both(alice, 0, "delete", key); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.both(alice, 0, "read", key); err == nil {
		t.Fatal("read after delete succeeded")
	}
}

func TestSmallbankDifferential(t *testing.T) {
	// Random Smallbank ops on both implementations; getBalance must
	// agree after every step.
	w := newWorld(t, "smallbank")
	client := addr("teller")
	rng := rand.New(rand.NewSource(11))
	acct := func(i int) []byte { return types.U64Bytes(uint64(i)) }
	const accounts = 8

	for i := 0; i < accounts; i++ {
		if _, _, err := w.both(client, 0, "depositChecking", acct(i), types.U64Bytes(1000)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.both(client, 0, "transactSavings", acct(i), types.U64Bytes(500)); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 300; op++ {
		a, b := rng.Intn(accounts), rng.Intn(accounts)
		amt := types.U64Bytes(uint64(rng.Intn(200)))
		var err error
		switch rng.Intn(5) {
		case 0:
			_, _, err = w.both(client, 0, "sendPayment", acct(a), acct(b), amt)
		case 1:
			_, _, err = w.both(client, 0, "depositChecking", acct(a), amt)
		case 2:
			_, _, err = w.both(client, 0, "transactSavings", acct(a), amt)
		case 3:
			_, _, err = w.both(client, 0, "writeCheck", acct(a), amt)
		case 4:
			_, _, err = w.both(client, 0, "amalgamate", acct(a), acct(b))
		}
		_ = err // failure agreement already asserted inside both()
		// Balances must agree across implementations.
		eo, co, err := w.both(client, 0, "getBalance", acct(a))
		if err != nil {
			t.Fatalf("op %d: getBalance: %v", op, err)
		}
		if types.U64(reverseLE(eo)) != types.U64(co) {
			t.Fatalf("op %d: balance mismatch evm=%d cc=%d",
				op, types.U64(reverseLE(eo)), types.U64(co))
		}
	}
	// Conservation: total across all accounts is preserved by transfers
	// (deposits add, but both sides saw identical op sequences).
	var etotal, ctotal uint64
	for i := 0; i < accounts; i++ {
		eo, co, err := w.both(client, 0, "getBalance", acct(i))
		if err != nil {
			t.Fatal(err)
		}
		etotal += types.U64(reverseLE(eo))
		ctotal += types.U64(co)
	}
	if etotal != ctotal {
		t.Fatalf("total balance diverged: evm=%d cc=%d", etotal, ctotal)
	}
}

// reverseLE converts the EVM's little-endian 8-byte output to the
// big-endian convention of types.U64.
func reverseLE(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[len(b)-1-i]
	}
	return out
}

func TestSmallbankOverdraftReverts(t *testing.T) {
	w := newWorld(t, "smallbank")
	client := addr("teller")
	a, b := types.U64Bytes(1), types.U64Bytes(2)
	if _, _, err := w.both(client, 0, "depositChecking", a, types.U64Bytes(50)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.both(client, 0, "sendPayment", a, b, types.U64Bytes(100)); err == nil {
		t.Fatal("overdraft sendPayment succeeded")
	}
	// Balance unchanged on both sides.
	eo, co, err := w.both(client, 0, "getBalance", a)
	if err != nil {
		t.Fatal(err)
	}
	if types.U64(reverseLE(eo)) != 50 || types.U64(co) != 50 {
		t.Fatal("failed payment mutated balance")
	}
}

func TestEtherIdEVM(t *testing.T) {
	w := newWorld(t, "etherid")
	alice, bob := addr("alice"), addr("bob")
	w.edb.SetBalance(alice, 1000)
	w.edb.SetBalance(bob, 1000)
	domain := types.U64Bytes(42)

	if _, err := w.evmInvoke(alice, 0, "register", domain, types.U64Bytes(100)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := w.evmInvoke(bob, 0, "register", domain, types.U64Bytes(1)); err == nil {
		t.Fatal("double registration succeeded")
	}
	out, err := w.evmInvoke(alice, 0, "query", domain)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if types.BytesToAddress(out[:20]) != alice {
		t.Fatal("owner is not alice")
	}
	// Bob cannot transfer a domain he does not own.
	if _, err := w.evmInvoke(bob, 0, "transfer", domain, bob.Bytes()); err == nil {
		t.Fatal("non-owner transfer succeeded")
	}
	// Bob buys it, paying the 100 price from his tx value to alice.
	if _, err := w.evmInvoke(bob, 150, "buy", domain); err != nil {
		t.Fatalf("buy: %v", err)
	}
	out, err = w.evmInvoke(bob, 0, "query", domain)
	if err != nil {
		t.Fatal(err)
	}
	if types.BytesToAddress(out[:20]) != bob {
		t.Fatal("buy did not change owner")
	}
	// Alice received the payment (150, full tx value).
	if got := w.edb.GetBalance(alice); got != 1150 {
		t.Fatalf("alice balance = %d, want 1150", got)
	}
	// Underpayment reverts.
	if _, err := w.evmInvoke(alice, 10, "buy", domain); err == nil {
		t.Fatal("cheap buy succeeded")
	}
}

func TestEtherIdChaincode(t *testing.T) {
	w := newWorld(t, "etherid")
	alice, bob := addr("alice"), addr("bob")
	domain := types.U64Bytes(7)
	for _, who := range []types.Address{alice, bob} {
		if _, err := w.ccInvoke(who, 0, "prealloc", who.Bytes(), types.U64Bytes(500)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.ccInvoke(alice, 0, "register", domain, types.U64Bytes(200)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ccInvoke(bob, 0, "buy", domain); err != nil {
		t.Fatalf("buy: %v", err)
	}
	out, err := w.ccInvoke(bob, 0, "query", domain)
	if err != nil {
		t.Fatal(err)
	}
	if types.BytesToAddress(out[:20]) != bob {
		t.Fatal("owner not bob after buy")
	}
	// Bob paid 200 of his 500; alice received 200 on top of 500.
	stub := chaincode.NewStub(w.cdb, w.name, alice, 0)
	if got := eidBal(stub, bob); got != 300 {
		t.Fatalf("bob balance = %d, want 300", got)
	}
	if got := eidBal(stub, alice); got != 700 {
		t.Fatalf("alice balance = %d, want 700", got)
	}
}

func TestDoublerEVMPaysEarlyParticipants(t *testing.T) {
	w := newWorld(t, "doubler")
	users := []types.Address{addr("u1"), addr("u2"), addr("u3"), addr("u4")}
	for _, u := range users {
		w.edb.SetBalance(u, 1000)
	}
	// Each participant pays 100 in. After enough entries the pot exceeds
	// 2*100 and u1 is paid 200.
	for i, u := range users {
		if _, err := w.evmInvoke(u, 100, "enter"); err != nil {
			t.Fatalf("enter %d: %v", i, err)
		}
	}
	if got := w.edb.GetBalance(users[0]); got != 1100 {
		t.Fatalf("u1 balance = %d, want 1100 (paid out double)", got)
	}
	// The contract pot holds the rest: 400 in - 200 out = 200.
	if got := w.edb.GetBalance(w.contractAddr()); got != 200 {
		t.Fatalf("pot = %d, want 200", got)
	}
}

func TestDoublerChaincodeBookkeeping(t *testing.T) {
	w := newWorld(t, "doubler")
	for i := 0; i < 4; i++ {
		if _, err := w.ccInvoke(addr("user"), 100, "enter"); err != nil {
			t.Fatal(err)
		}
	}
	stub := chaincode.NewStub(w.cdb, w.name, addr("x"), 0)
	out, err := (Doubler{}).Query(stub, "participants", nil)
	if err != nil || types.U64(out) != 4 {
		t.Fatalf("participants = %v, %v", out, err)
	}
	out, err = (Doubler{}).Query(stub, "payoutIndex", nil)
	if err != nil {
		t.Fatal(err)
	}
	if types.U64(out) == 0 {
		t.Fatal("no payouts happened")
	}
}

func TestWavesPresaleBoth(t *testing.T) {
	w := newWorld(t, "wavespresale")
	alice, bob := addr("alice"), addr("bob")
	id := types.U64Bytes(1)

	if _, _, err := w.both(alice, 0, "newSale", id, types.U64Bytes(100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.both(alice, 0, "newSale", id, types.U64Bytes(5)); err == nil {
		t.Fatal("duplicate sale succeeded")
	}
	if _, _, err := w.both(bob, 0, "newSale", types.U64Bytes(2), types.U64Bytes(50)); err != nil {
		t.Fatal(err)
	}
	// EVM: total via contract call; chaincode: via Query.
	out, err := w.evmInvoke(alice, 0, "total")
	if err != nil || types.U64(reverseLE(out)) != 150 {
		t.Fatalf("evm total = %v, %v", out, err)
	}
	stub := chaincode.NewStub(w.cdb, w.name, alice, 0)
	out, err = (WavesPresale{}).Query(stub, "total", nil)
	if err != nil || types.U64(out) != 150 {
		t.Fatalf("cc total = %v, %v", out, err)
	}
	// Ownership transfer with owner check.
	if _, _, err := w.both(bob, 0, "transferSale", id, bob.Bytes()); err == nil {
		t.Fatal("non-owner transferSale succeeded")
	}
	if _, _, err := w.both(alice, 0, "transferSale", id, bob.Bytes()); err != nil {
		t.Fatal(err)
	}
	out, err = w.evmInvoke(alice, 0, "getSale", id)
	if err != nil || types.BytesToAddress(out[:20]) != bob {
		t.Fatalf("evm sale owner wrong: %v %v", out, err)
	}
}

func TestIOHeavyBothWriteRead(t *testing.T) {
	w := newWorld(t, "ioheavy")
	client := addr("io")
	n, seed := types.U64Bytes(200), types.U64Bytes(9999)
	if _, _, err := w.both(client, 0, "write", n, seed); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.both(client, 0, "read", n, seed); err != nil {
		t.Fatal(err)
	}
	// Both sides must have written the same tuples (same key derivation).
	key := ioKey(9999 + 7)
	ev := w.edb.GetState("ioheavy", key)
	cv := w.cdb.GetState("ioheavy", key)
	if ev == nil || cv == nil {
		t.Fatal("tuple missing on one side")
	}
	if len(ev) != 100 || len(cv) != 100 {
		t.Fatalf("value lengths: evm=%d cc=%d, want 100", len(ev), len(cv))
	}
	if types.U64(reverseLE(ev[:8])) != 7 || types.U64(reverseLE(cv[:8])) != 7 {
		t.Fatal("value payload wrong")
	}
}

func TestCPUHeavySortsBoth(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 1000} {
		w := newWorld(t, "cpuheavy")
		eo, co, err := w.both(addr("c"), 0, "sort", types.U64Bytes(uint64(n)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantMin := uint64(1)
		if n == 0 {
			wantMin = 0
		}
		if got := types.U64(reverseLE(eo)); got != wantMin {
			t.Fatalf("n=%d: evm min = %d, want %d", n, got, wantMin)
		}
		if got := types.U64(co); got != wantMin {
			t.Fatalf("n=%d: cc min = %d, want %d", n, got, wantMin)
		}
	}
}

func TestCPUHeavyEVMFullySorted(t *testing.T) {
	// Verify the whole array, not just a[0], by reading VM memory via a
	// second method? The VM is opaque; instead sort a permutation-free
	// descending array and check the returned minimum plus gas growth.
	w := newWorld(t, "cpuheavy")
	small, err := w.evmRunGas(100)
	if err != nil {
		t.Fatal(err)
	}
	large, err := w.evmRunGas(1000)
	if err != nil {
		t.Fatal(err)
	}
	if large < small*5 {
		t.Fatalf("gas did not scale with n: %d vs %d", small, large)
	}
}

func (w *world) evmRunGas(n uint64) (uint64, error) {
	res := evm.Run(w.spec.EVM, "sort", &evm.Env{
		State: w.edb, Contract: w.name, Caller: addr("c"),
		Args: [][]byte{types.U64Bytes(n)}, GasLimit: 1 << 40,
	})
	return res.GasUsed, res.Err
}

func TestDoNothingBoth(t *testing.T) {
	w := newWorld(t, "donothing")
	if _, _, err := w.both(addr("x"), 0, "invoke"); err != nil {
		t.Fatal(err)
	}
}

func TestVersionKVHistoricalQuery(t *testing.T) {
	spec, err := Lookup("versionkv")
	if err != nil {
		t.Fatal(err)
	}
	b, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := state.NewDB(b)
	invoke := func(block uint64, method string, args ...[]byte) error {
		stub := chaincode.NewStub(db, "versionkv", addr("client"), 0)
		stub.BlockNumber = block
		_, err := spec.Chaincode.Invoke(stub, method, args)
		return err
	}
	acct := []byte("acct-1")
	other := []byte("acct-2")
	if err := invoke(1, "prealloc", acct, types.U64Bytes(1000)); err != nil {
		t.Fatal(err)
	}
	if err := invoke(1, "prealloc", other, types.U64Bytes(1000)); err != nil {
		t.Fatal(err)
	}
	// Three sends at blocks 5, 10, 15: balances 900, 800, 700.
	for i, blk := range []uint64{5, 10, 15} {
		if err := invoke(blk, "sendValue", acct, other, types.U64Bytes(100)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	stub := chaincode.NewStub(db, "versionkv", addr("client"), 0)
	out, err := spec.Chaincode.Query(stub, "accountBlockRange",
		[][]byte{acct, types.U64Bytes(5), types.U64Bytes(11)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 16 {
		t.Fatalf("got %d bytes, want 2 versions (16)", len(out))
	}
	if types.U64(out[:8]) != 800 || types.U64(out[8:]) != 900 {
		t.Fatalf("versions = %d, %d; want 800, 900", types.U64(out[:8]), types.U64(out[8:]))
	}
	// Overdraft reverts.
	if err := invoke(20, "sendValue", acct, other, types.U64Bytes(10000)); !errors.Is(err, chaincode.ErrRevert) {
		t.Fatalf("overdraft: %v", err)
	}
}

func TestUnknownMethodsRejected(t *testing.T) {
	for _, name := range []string{"ycsb", "smallbank", "etherid", "doubler", "wavespresale"} {
		w := newWorld(t, name)
		if _, err := w.evmInvoke(addr("x"), 0, "bogusMethod"); !errors.Is(err, evm.ErrNoMethod) {
			t.Errorf("%s evm: err = %v", name, err)
		}
		if _, err := w.ccInvoke(addr("x"), 0, "bogusMethod"); !errors.Is(err, chaincode.ErrNoMethod) {
			t.Errorf("%s cc: err = %v", name, err)
		}
	}
}
