package poa

import (
	"slices"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/schedtest"
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

// TestSlotTable steps three authority cores through schedtest rows
// across seven slot boundaries (no runner, no goroutine, no sleep): each
// seals exactly once per slot it owns and asks to be woken at the next
// boundary; a second wake inside a slot seals nothing more, and a wake
// that arrives a slot late (authority 1 sleeps through slot 4, which it
// owns) seals neither the missed slot nor anything extra.
func TestSlotTable(t *testing.T) {
	const width = 40 * time.Millisecond
	auth := addrs(3)
	cores := make([]*core, len(auth))
	s := schedtest.New(t, len(auth), func(ctx consensus.Context, _ time.Time) consensus.Step {
		ctx.Address = auth[ctx.Self]
		cores[ctx.Self] = &core{ctx: ctx, opts: Options{StepDuration: width, Authorities: auth}}
		return cores[ctx.Self].step
	}, "donothing")
	// Slot s starts at s×width from the Unix epoch; authority s%3 owns
	// it. Offsets are into the slot: the timer fires a little after the
	// boundary.
	s.T0, s.Now = time.Unix(0, 0), time.Unix(0, 0)
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
		s.Run([]schedtest.Row{{At: at(r.slot, r.into).Sub(s.T0), Op: schedtest.Wake, Nodes: r.nodes}})
		for _, i := range r.nodes {
			if wake, want := s.Wakes[i], at(r.slot+1, 0); !wake.Equal(want) {
				t.Fatalf("authority %d in slot %d asked to be woken at %v, want the next boundary %v", i, r.slot, wake, want)
			}
		}
	}
	want := [][]uint64{{3, 6}, {1, 7}, {2, 5}}
	for i := range auth {
		// The slots of the blocks authority i gossiped, read off its
		// copies to the next authority (nothing is delivered).
		var slots []uint64
		for _, m := range s.Flight {
			if int(m.From) == i && int(m.To) == (i+1)%len(auth) {
				slots = append(slots, m.Payload.(*types.Block).Header.View)
			}
		}
		if !slices.Equal(slots, want[i]) || cores[i].sealed != uint64(len(want[i])) {
			t.Errorf("authority %d sealed slots %v (counter %d), want %v", i, slots, cores[i].sealed, want[i])
		}
	}
}

// TestSchedulesReplay: rerun on fresh sims, the slot table seals the same blocks.
func TestSchedulesReplay(t *testing.T) {
	schedtest.Replay(t, TestSlotTable)
}
