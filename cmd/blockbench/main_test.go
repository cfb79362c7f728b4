package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"blockbench"
)

// TestMain lets the test binary stand in for the CLI: re-executed with
// the marker variable set it runs main() on its arguments, so the tests
// below observe real flag parsing, stderr and exit codes. The stand-in
// also registers the "violator" workload, whose safety audit always
// fails.
func TestMain(m *testing.M) {
	if os.Getenv("BLOCKBENCH_TEST_RUN_MAIN") == "1" {
		if err := blockbench.RegisterWorkload(blockbench.WorkloadSpec{
			Name: "violator",
			New:  func(blockbench.WorkloadOptions) (blockbench.Workload, error) { return violator{}, nil },
		}); err != nil {
			panic(err)
		}
		main()
		return
	}
	os.Exit(m.Run())
}

// violator is DoNothing with a workload invariant that never holds.
type violator struct{ blockbench.DoNothingWorkload }

func (violator) CheckInvariants(*blockbench.Cluster) []string {
	return []string{"planted violation"}
}

// runMain re-executes the test binary as the CLI and returns its stderr
// and exit error.
func runMain(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BLOCKBENCH_TEST_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

// boot is a run small enough to finish in well under a second once it
// boots.
var boot = []string{"-nodes", "2", "-clients", "1", "-threads", "1", "-rate", "20", "-duration", "300ms", "-quiet"}

// TestInvariantViolationExitsTwo: a run whose invariant checks report
// anything prints the violations and exits with status 2. Negative
// probabilities switch both chaos fault axes off; -chaos still arms the
// checks.
func TestInvariantViolationExitsTwo(t *testing.T) {
	stderr, err := runMain(append([]string{"-platform", "quorum", "-workload", "violator",
		"-chaos", "seed=1,kill=-1,net=-1"}, boot...)...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2; stderr:\n%s", err, stderr)
	}
	for _, want := range []string{"SAFETY INVARIANT VIOLATIONS (1)", "planted violation"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q does not mention %q", stderr, want)
		}
	}
}

// TestOptionFlags covers -wopt / -popt handling end to end: key=val
// parsing, malformed and repeated keys, and an unknown -popt key failing
// with the keys the preset does take.
func TestOptionFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		ok   bool
		want []string // substrings of stderr on failure
	}{
		{"popt and wopt key=val", []string{"-platform", "quorum", "-popt", "batch=8", "-popt", "heartbeat=10ms",
			"-workload", "ycsb", "-wopt", "records=20", "-wopt", "distribution=uniform"}, true, nil},
		{"value containing =", []string{"-platform", "quorum", "-popt", "storedir=" + filepath.Join(t.TempDir(), "a=b")}, true, nil},
		{"popt without value", []string{"-popt", "novalue"}, false, []string{"-popt", "novalue", "key=val"}},
		{"popt without key", []string{"-popt", "=v"}, false, []string{"-popt", "key=val"}},
		{"wopt without value", []string{"-wopt", "novalue"}, false, []string{"-wopt", "novalue", "key=val"}},
		{"wopt without key", []string{"-wopt", "=v"}, false, []string{"-wopt", "key=val"}},
		{"repeated popt", []string{"-platform", "sharded", "-popt", "shards=2", "-popt", "shards=4"}, false,
			[]string{"-popt", "shards", "twice"}},
		{"repeated wopt", []string{"-wopt", "records=1", "-wopt", "records=2"}, false, []string{"-wopt", "records", "twice"}},
		{"unknown popt key", []string{"-platform", "quorum", "-popt", "hartbeat=10ms"}, false,
			[]string{"unknown option", "hartbeat", "known:", "heartbeat", "election", "workers"}},
		{"popt on the wrong preset", []string{"-platform", "hyperledger", "-popt", "workers=4"}, false,
			[]string{"hyperledger", "unknown option", "workers", "known:", "batch", "index"}},
		{"retired popt keys", []string{"-platform", "sharded", "-popt", "partitioner=range", "-popt", "bounds=a,b",
			"-popt", "maxappend=16", "-popt", "window=32"}, false,
			[]string{"unknown option", "bounds", "maxappend", "partitioner", "window"}},
		{"unknown wopt key", []string{"-workload", "ycsb", "-wopt", "recrods=5"}, false, []string{"unknown option", "recrods", "records"}},
		{"readprop zero", []string{"-workload", "ycsb", "-wopt", "readprop=0"}, false, []string{"readprop", "(0, 1]"}},
		{"readprop above one", []string{"-workload", "ycsb", "-wopt", "readprop=1.5"}, false, []string{"readprop", "(0, 1]"}},
		{"retired ycsb distribution", []string{"-workload", "ycsb", "-wopt", "distribution=latest"}, false,
			[]string{"distribution", "zipfian or uniform"}},
		{"retired ycsb wopt keys", []string{"-workload", "ycsb", "-wopt", "valuesize=64", "-wopt", "insertprop=0.1",
			"-wopt", "updateprop=0.4"}, false, []string{"unknown option", "insertprop", "updateprop", "valuesize"}},
		{"retired doubler wopt key", []string{"-workload", "doubler", "-wopt", "stake=5"}, false, []string{"unknown option", "stake"}},
		{"retired htap wopt keys", []string{"-workload", "htap", "-wopt", "accounts=4", "-wopt", "window=8", "-wopt", "k=3",
			"-wopt", "blocks=4", "-wopt", "txperblock=2"}, false,
			[]string{"unknown option", "accounts", "blocks", "k", "txperblock", "window", "known: [qevery]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stderr, err := runMain(append(tc.args, boot...)...)
			if tc.ok {
				if err != nil {
					t.Fatalf("exit %v, stderr:\n%s", err, stderr)
				}
				return
			}
			if err == nil {
				t.Fatalf("exit 0, want a non-zero exit")
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr %q does not mention %q", stderr, w)
				}
			}
		})
	}
}

// TestListWorkloads: -workloads prints every registered workload with a
// non-empty contract set and its description.
func TestListWorkloads(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-workloads")
	cmd.Env = append(os.Environ(), "BLOCKBENCH_TEST_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("-workloads: %v", err)
	}
	listed := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		listed[name] = rest
	}
	for _, name := range blockbench.Workloads() {
		rest, ok := listed[name]
		if !ok {
			t.Errorf("-workloads does not list %s:\n%s", name, out)
			continue
		}
		contracts, _, _ := strings.Cut(strings.TrimSpace(rest), "]")
		if contracts == "[" || !strings.HasPrefix(contracts, "[") {
			t.Errorf("%s lists no contracts: %q", name, rest)
		}
	}
}
