package platform

import (
	"maps"
	"sync"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/metrics"
)

// TestEveryEngineKeepsTheContract holds consensus.Engine's lifecycle on
// every platform's engines, whether they are a core behind an
// embedded runner (raft, pbft, poa), override part of it (the sharded
// gateway's Stop) or are written by hand (pow): Stop before Start is a
// no-op, a second Start and a second Stop are harmless, Handle returns
// after Stop, and Counters can be read while Handle runs and the cluster
// commits (run it with -race).
func TestEveryEngineKeepsTheContract(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			keys := clientKeys(2)
			c, err := New(Config{Kind: kind, Nodes: 4, ClientKeys: keys,
				GenesisBalance: 1_000_000, RPCLatency: time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Stop(); c.Close() })
			engines := make([]consensus.Engine, c.Size())
			for i := range engines {
				engines[i] = c.Node(i).Consensus()
				if _, ok := engines[i].(metrics.CounterProvider); !ok {
					t.Fatalf("%T does not expose Counters", engines[i])
				}
			}
			returns := func(what string, f func(consensus.Engine)) {
				t.Helper()
				for _, e := range engines {
					done := make(chan struct{})
					go func() { defer close(done); f(e) }()
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						t.Fatalf("%T: %s did not return", e, what)
					}
				}
			}

			returns("Stop before Start", consensus.Engine.Stop)
			c.Start() // each node's Start starts its engine
			returns("second Start", consensus.Engine.Start)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						for _, e := range engines {
							e.Handle(consensus.Wake)
						}
					}
				}
			}()
			for i := 0; i < 8; i++ {
				submitYCSB(t, c, keys[i%len(keys)], kind != Parity, i)
			}
			// Read until some engine's counters move: a step wrote what
			// Counters reads, so an unlocked read is a race.
			first := make([]map[string]uint64, len(engines))
			for i, e := range engines {
				first[i] = e.(metrics.CounterProvider).Counters()
			}
			for moved, deadline := false, time.Now().Add(10*time.Second); !moved; {
				if time.Now().After(deadline) {
					t.Fatal("no engine's counters moved in 10s")
				}
				for i, e := range engines {
					moved = moved || !maps.Equal(first[i], e.(metrics.CounterProvider).Counters())
				}
			}
			close(stop)
			wg.Wait()

			returns("Stop", consensus.Engine.Stop)
			returns("second Stop", consensus.Engine.Stop)
			returns("Handle after Stop", func(e consensus.Engine) { e.Handle(consensus.Wake) })
		})
	}
}
