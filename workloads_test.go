package blockbench

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestWorkloadRegistryComplete pins the shipped workload set: every
// name must build through the registry and agree with the instance on
// name and contracts.
func TestWorkloadRegistryComplete(t *testing.T) {
	want := []string{"ycsb", "smallbank", "etherid", "doubler",
		"wavespresale", "donothing", "ioheavy", "cpuheavy", "analytics",
		"htap"}
	names := Workloads()
	if len(names) != len(want) {
		t.Fatalf("registered %d workloads, want %d: %v", len(names), len(want), names)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range want {
		if !seen[n] {
			t.Fatalf("missing workload %s", n)
		}
		w, err := NewWorkload(n, nil)
		if err != nil {
			t.Fatalf("build %s: %v", n, err)
		}
		if w.Name() != n {
			t.Fatalf("registered as %q but Name() = %q", n, w.Name())
		}
		if len(w.Contracts()) == 0 {
			t.Fatalf("%s lists no contracts", n)
		}
		// The spec's contract list (readable without instantiation) must
		// not drift from the instance's.
		spec := WorkloadContracts(n)
		if len(spec) != len(w.Contracts()) {
			t.Fatalf("%s: spec contracts %v != instance contracts %v", n, spec, w.Contracts())
		}
		for i, c := range w.Contracts() {
			if spec[i] != c {
				t.Fatalf("%s: spec contracts %v != instance contracts %v", n, spec, w.Contracts())
			}
		}
		if WorkloadDescribe(n) == "" {
			t.Fatalf("%s has no description", n)
		}
	}
}

func TestNewWorkloadOptions(t *testing.T) {
	w, err := NewWorkload("ycsb", WorkloadOptions{
		"records": "50", "readprop": "0.9", "updateprop": "0.1",
		"distribution": "uniform",
	})
	if err != nil {
		t.Fatal(err)
	}
	y := w.(*YCSBWorkload)
	if y.Records != 50 || y.ReadProp != 0.9 || y.UpdateProp != 0.1 || y.Distribution != "uniform" {
		t.Fatalf("options not applied: %+v", y)
	}
	if _, err := NewWorkload("ycsb", WorkloadOptions{"records": "many"}); err == nil {
		t.Fatal("malformed value accepted")
	}
	if _, err := NewWorkload("ycsb", WorkloadOptions{"recrods": "50"}); err == nil {
		t.Fatal("unknown option accepted")
	}
	if _, err := NewWorkload("no-such", nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// drawOps pulls n operations from a workload across a few client IDs.
func drawOps(w Workload, n int) []Op {
	rng := rand.New(rand.NewSource(99))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = w.Next(i%4, rng)
	}
	return ops
}

// binomialTolerance is a ~4.5-sigma band for a proportion estimated
// from n draws: false-failure odds well below 1e-4 per check.
func binomialTolerance(p float64, n int) float64 {
	return 4.5 * math.Sqrt(p*(1-p)/float64(n))
}

func checkProportion(t *testing.T, label string, got, want float64, n int) {
	t.Helper()
	if tol := binomialTolerance(want, n); math.Abs(got-want) > tol {
		t.Errorf("%s proportion = %.4f, want %.4f +/- %.4f", label, got, want, tol)
	}
}

// TestYCSBProportions verifies Next honors the configured
// read/update/insert mix over 10k draws.
func TestYCSBProportions(t *testing.T) {
	const n = 10_000
	w := MustWorkload("ycsb", WorkloadOptions{
		"records": "1000", "readprop": "0.6", "updateprop": "0.3",
		"insertprop": "0.1", "distribution": "uniform",
	})
	// Init would seed the insert counter past the preload range; do it
	// directly so inserted keys are distinguishable without a cluster.
	w.(*YCSBWorkload).inserted.Store(1000)
	reads, writes, inserts := 0, 0, 0
	for _, op := range drawOps(w, n) {
		switch {
		case op.Method == "read":
			reads++
		case string(op.Args[0]) > "user0000000999": // insert keys continue past the preload range
			inserts++
		default:
			writes++
		}
	}
	checkProportion(t, "read", float64(reads)/n, 0.6, n)
	checkProportion(t, "update", float64(writes)/n, 0.3, n)
	checkProportion(t, "insert", float64(inserts)/n, 0.1, n)
}

// TestSmallbankProportions verifies the standard procedure mix: each
// procedure 1/6 of draws except sendPayment at 2/6.
func TestSmallbankProportions(t *testing.T) {
	const n = 10_000
	w := MustWorkload("smallbank", WorkloadOptions{"accounts": "100"})
	counts := make(map[string]int)
	for _, op := range drawOps(w, n) {
		counts[op.Method]++
	}
	sixth := 1.0 / 6
	checkProportion(t, "transactSavings", float64(counts["transactSavings"])/n, sixth, n)
	checkProportion(t, "depositChecking", float64(counts["depositChecking"])/n, sixth, n)
	checkProportion(t, "sendPayment", float64(counts["sendPayment"])/n, 2*sixth, n)
	checkProportion(t, "writeCheck", float64(counts["writeCheck"])/n, sixth, n)
	checkProportion(t, "amalgamate", float64(counts["amalgamate"])/n, sixth, n)
}

// TestNextConcurrentWithoutInit drives every registered workload's Next
// from several goroutines with Init skipped — the SkipInit + blocking
// configuration — so the race detector can catch unsynchronized lazy
// initialization. Analytics is excluded: it requires Init (its Next
// draws from the preloaded account set).
func TestNextConcurrentWithoutInit(t *testing.T) {
	for _, name := range Workloads() {
		if name == "analytics" {
			continue
		}
		w := MustWorkload(name, nil)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 200; i++ {
					op := w.Next(g%4, rng)
					if op.Contract == "" && op.Value == 0 {
						t.Errorf("%s produced an empty op", name)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
