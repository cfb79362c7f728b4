package poa

import (
	"slices"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/state"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

func addrs(n int) []types.Address {
	out := make([]types.Address, n)
	for i := range out {
		out[i] = types.BytesToAddress([]byte{byte(i + 1)})
	}
	return out
}

func TestMyTurnRoundRobin(t *testing.T) {
	auth := addrs(4)
	for i, a := range auth {
		e := New(consensus.Context{Address: a}, Options{
			StepDuration: time.Millisecond, Authorities: auth,
		})
		for step := int64(0); step < 12; step++ {
			want := step%4 == int64(i)
			if got := e.myTurn(step); got != want {
				t.Fatalf("authority %d step %d: myTurn = %v, want %v", i, step, got, want)
			}
		}
	}
}

func TestMyTurnNoAuthorities(t *testing.T) {
	e := New(consensus.Context{}, Options{StepDuration: time.Millisecond})
	if e.myTurn(5) {
		t.Fatal("turn granted with empty authority set")
	}
}

func TestValidProposerChecksSlotOwner(t *testing.T) {
	auth := addrs(3)
	e := New(consensus.Context{Address: auth[0]}, Options{
		StepDuration: time.Millisecond, Authorities: auth,
	})
	// Step (View) 7 belongs to authority 7 % 3 = 1.
	good := &types.Block{Header: types.Header{View: 7, Proposer: auth[1]}}
	if !e.validProposer(good) {
		t.Fatal("legitimate slot owner rejected")
	}
	bad := &types.Block{Header: types.Header{View: 7, Proposer: auth[2]}}
	if e.validProposer(bad) {
		t.Fatal("slot thief accepted")
	}
	e2 := New(consensus.Context{}, Options{StepDuration: time.Millisecond})
	if e2.validProposer(good) {
		t.Fatal("empty authority set accepted a proposer")
	}
}

// sealLog is a consensus.Net that records the slot of every block an
// authority gossips.
type sealLog struct{ slots []uint64 }

func (l *sealLog) Send(simnet.NodeID, string, any) bool { return true }
func (l *sealLog) Broadcast(_ string, payload any) {
	l.slots = append(l.slots, payload.(*types.Block).Header.View)
}

// TestSlotTable steps three authority cores by hand across seven slot
// boundaries (no runner, no goroutine, no sleep): each seals exactly
// once per slot it owns and asks to be woken at the next boundary; a
// second wake inside a slot seals nothing more, and a wake that arrives
// a slot late (authority 1 sleeps through slot 4, which it owns) seals
// neither the missed slot nor anything extra.
func TestSlotTable(t *testing.T) {
	const width = 40 * time.Millisecond
	auth := addrs(3)
	logs := make([]*sealLog, len(auth))
	cores := make([]*core, len(auth))
	for i, a := range auth {
		pool := txpool.New(0)
		eng, err := exec.NewNativeEngine("donothing")
		if err != nil {
			t.Fatal(err)
		}
		store := kvstore.NewMem()
		chain, err := ledger.New(ledger.Config{
			Engine: eng,
			StateFactory: func(root types.Hash) (*state.DB, error) {
				b, err := state.NewTrieBackend(store, root, 0)
				if err != nil {
					return nil, err
				}
				return state.NewDB(b), nil
			},
			SupportsForks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = &sealLog{}
		cores[i] = &core{ctx: consensus.Context{Address: a, Endpoint: logs[i], Chain: chain, Pool: pool},
			opts: Options{StepDuration: width, Authorities: auth}}
	}
	// Slot s starts at s×width; authority s%3 owns it. Offsets are into
	// the slot: the timer fires a little after the boundary.
	at := func(slot int64, into time.Duration) time.Time { return time.Unix(0, slot*int64(width)).Add(into) }
	type row struct {
		slot  int64
		into  time.Duration
		nodes []int
	}
	for _, r := range []row{
		{slot: 1, into: time.Millisecond, nodes: []int{0, 1, 2}},
		{slot: 1, into: 20 * time.Millisecond, nodes: []int{0, 1, 2}}, // a second wake inside the slot
		{slot: 2, into: 0, nodes: []int{0, 1, 2}},                     // exactly on the boundary
		{slot: 3, into: time.Millisecond, nodes: []int{0, 1, 2}},
		{slot: 4, into: time.Millisecond, nodes: []int{0, 2}},    // authority 1 oversleeps its own slot...
		{slot: 5, into: time.Millisecond, nodes: []int{0, 1, 2}}, // ...and wakes in authority 2's
		{slot: 6, into: 39 * time.Millisecond, nodes: []int{0, 1, 2}},
		{slot: 7, into: time.Millisecond, nodes: []int{0, 1, 2}},
	} {
		for _, i := range r.nodes {
			now := at(r.slot, r.into)
			if wake, want := cores[i].step(now, consensus.Wake), at(r.slot+1, 0); !wake.Equal(want) {
				t.Fatalf("authority %d in slot %d asked to be woken at %v, want the next boundary %v", i, r.slot, wake, want)
			}
		}
	}
	want := [][]uint64{{3, 6}, {1, 7}, {2, 5}}
	for i, l := range logs {
		if !slices.Equal(l.slots, want[i]) || cores[i].sealed != uint64(len(want[i])) {
			t.Errorf("authority %d sealed slots %v (counter %d), want %v", i, l.slots, cores[i].sealed, want[i])
		}
	}
}
