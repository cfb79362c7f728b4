package blockbench

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestWorkloadRegistryComplete pins the shipped workload set: every
// name must build through the registry, agree with the instance on its
// name, and deploy at least one contract.
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
		if WorkloadDescribe(n) == "" {
			t.Fatalf("%s has no description", n)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	factory := func(WorkloadOptions) (Workload, error) { return DoNothingWorkload{}, nil }
	if err := RegisterWorkload(WorkloadSpec{Name: "", New: factory}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterWorkload(WorkloadSpec{Name: "no-factory"}); err == nil {
		t.Fatal("missing factory accepted")
	}
	ok := WorkloadSpec{Name: "reg-test", Description: "x", New: factory}
	if err := RegisterWorkload(ok); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		workloadMu.Lock()
		delete(workloadSpecs, ok.Name)
		workloadMu.Unlock()
	})
	if err := RegisterWorkload(ok); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate not rejected: %v", err)
	}
	if WorkloadDescribe("reg-test") != "x" {
		t.Fatal("WorkloadDescribe lost the summary")
	}
	if !slices.Contains(Workloads(), "reg-test") {
		t.Fatal("registered name missing from Workloads")
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := NewWorkload("no-such-workload", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown name") {
		t.Fatalf("unknown workload: %v", err)
	}
	if WorkloadContracts("no-such-workload") != nil {
		t.Fatal("an unknown workload lists contracts")
	}
}

// TestNamesSorted: the listing is sorted, so -workloads help text and
// registry tests are deterministic regardless of which file's init
// block registered first.
func TestNamesSorted(t *testing.T) {
	if names := Workloads(); !sort.StringsAreSorted(names) {
		t.Fatalf("Workloads() not sorted: %v", names)
	}
}

// TestDesignWorkloadTable holds DESIGN.md's -wopt table to the code: per
// workload, the documented keys must be exactly the keys its factory
// consults, as the unknown-key error lists them.
func TestDesignWorkloadTable(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "\n## Workload options\n")
	if !found {
		t.Fatal("DESIGN.md has no Workload options section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := make(map[string][]string)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "| ---") || strings.HasPrefix(line, "| key ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|") // key | workload | default | chooser
		name := strings.TrimSpace(cells[1])
		if _, err := NewWorkload(name, nil); err != nil {
			t.Fatalf("table row names workload %q: %v", name, err)
		}
		documented[name] = append(documented[name], strings.Trim(strings.TrimSpace(cells[0]), "`"))
	}
	for _, name := range Workloads() {
		_, err := NewWorkload(name, WorkloadOptions{"no-such-key": "1"})
		if err == nil {
			t.Fatalf("%s accepted an unknown key", name)
		}
		_, known, found := strings.Cut(err.Error(), "(known: [")
		if !found {
			t.Fatalf("%s: error %q lists no known keys", name, err)
		}
		consulted := strings.Fields(strings.TrimSuffix(known, "])"))
		want := documented[name]
		sort.Strings(want)
		if !slices.Equal(consulted, want) {
			t.Errorf("%s: factory consults %v, DESIGN.md documents %v", name, consulted, want)
		}
	}
}

func TestNewWorkloadOptions(t *testing.T) {
	w, err := NewWorkload("ycsb", WorkloadOptions{
		"records": "50", "readprop": "0.9", "distribution": "uniform",
	})
	if err != nil {
		t.Fatal(err)
	}
	y := w.(*YCSBWorkload)
	if y.Records != 50 || y.ReadProp != 0.9 || y.Distribution != "uniform" {
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

// TestYCSBProportions verifies Next honors the configured read/update
// mix over 10k draws.
func TestYCSBProportions(t *testing.T) {
	const n = 10_000
	w := MustWorkload("ycsb", WorkloadOptions{
		"records": "1000", "readprop": "0.6", "distribution": "uniform",
	})
	reads, writes := 0, 0
	for _, op := range drawOps(w, n) {
		if op.Method == "read" {
			reads++
		} else {
			writes++
		}
	}
	checkProportion(t, "read", float64(reads)/n, 0.6, n)
	checkProportion(t, "update", float64(writes)/n, 0.4, n)
}

// TestYCSBReadpropAloneUpdates: readprop alone sets the mix — every
// operation that is not a read is an update of a preloaded record, so
// after Init no key lies past the preload.
func TestYCSBReadpropAloneUpdates(t *testing.T) {
	const n = 10_000
	w := MustWorkload("ycsb", WorkloadOptions{"records": "100", "readprop": "0.9"})
	c := fastClusterStopped(t, Hyperledger, 1, 1)
	if err := w.Init(c, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	last := string(ycsbKey(99))
	writes := 0
	for _, op := range drawOps(w, n) {
		if op.Method == "write" {
			writes++
		}
		if k := string(op.Args[0]); k > last {
			t.Fatalf("%s %s lies past the 100-record preload", op.Method, k)
		}
	}
	checkProportion(t, "update", float64(writes)/n, 0.1, n)
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
