package consensus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"blockbench/internal/simnet"
)

// TestCoresStayPure holds the consensus seam: a core file imports no
// sync (or sync/atomic), reads no wall clock, arms no timer and starts
// no goroutine. Time reaches a core as step's now argument only. The
// schedule harness that drives the cores in their tests is held to the
// same rule: its clock is the table's.
func TestCoresStayPure(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Until": true, "NewTimer": true,
		"NewTicker": true, "AfterFunc": true, "After": true, "Tick": true, "Sleep": true}
	for _, path := range []string{"raft/core.go", "pbft/core.go", "poa/core.go", "../sharding/core.go", "schedtest/sim.go"} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || strings.HasPrefix(p, "sync/") {
				t.Errorf("%s imports %s", path, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "time" && banned[n.Sel.Name] {
					t.Errorf("%s: time.%s", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestRunnerWakesAtTheRequestedInstant drives a Runner with a scripted
// core: the loop's first step arms the timer, the wake arrives no earlier
// than asked, a zero instant disarms, the notify channel wakes like the
// timer, and a Handle re-arms from the instant its step returns.
func TestRunnerWakesAtTheRequestedInstant(t *testing.T) {
	type call struct {
		at   time.Time
		wake bool
	}
	calls := make(chan call, 16)
	var next time.Duration // what the next step asks for, once; 0: nothing
	notify := make(chan struct{}, 1)
	r := NewRunner(func(now time.Time, msg simnet.Message) time.Time {
		calls <- call{now, msg.Type == ""}
		d := next
		next = 0
		if d == 0 {
			return time.Time{}
		}
		return now.Add(d)
	}, notify)
	ask := func(d time.Duration) {
		r.Lock()
		next = d
		r.Unlock()
	}
	expect := func(what string, wake bool) call {
		t.Helper()
		select {
		case c := <-calls:
			if c.wake != wake {
				t.Fatalf("%s: step saw wake=%v", what, c.wake)
			}
			return c
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: core not stepped", what)
			return call{}
		}
	}
	quiet := func(what string) {
		t.Helper()
		select {
		case <-calls:
			t.Fatalf("%s: unexpected step", what)
		case <-time.After(30 * time.Millisecond):
		}
	}

	r.Stop() // before Start: a no-op
	ask(20 * time.Millisecond)
	r.Start()
	first := expect("start", true)
	second := expect("timer", true)
	if d := second.at.Sub(first.at); d < 20*time.Millisecond {
		t.Fatalf("woken %v after asking for 20ms", d)
	}
	quiet("disarmed by a zero instant")
	notify <- struct{}{}
	expect("notify", true)
	quiet("still disarmed")
	ask(10 * time.Millisecond)
	r.Handle(simnet.Message{Type: "x"})
	expect("deliver", false)
	expect("timer armed by deliver", true)
	quiet("disarmed again")
	r.Stop()
	r.Stop()
	r.Handle(simnet.Message{Type: "x"}) // the core still answers after Stop
	expect("deliver after stop", false)
}
