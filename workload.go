package blockbench

import (
	"fmt"
	"sort"
	"sync"

	"blockbench/internal/sharding"
	"blockbench/internal/workload"
)

// OpKeys extracts the state keys an operation addresses through the
// per-contract extractor the sharded router uses
// (sharding.ContractKeys: ycsb and smallbank; nil for any other
// contract), so skew tooling — the partitioner skew check, the
// shard-scaling benchmark's cross-shard touch rate — and the router
// always agree on placement.
func OpKeys(op Op) [][]byte {
	return sharding.ContractKeys(op.Contract, op.Method, op.Args)
}

// Workload registry: the application-layer mirror of the platform
// registry. Every shipped workload registers itself in its own file;
// the CLI, experiments and framework users build instances by name with
// NewWorkload, so adding a workload needs no CLI or experiment edits.

type (
	// WorkloadOptions carries -wopt key=val parameters into a factory.
	WorkloadOptions = workload.Options
	// WorkloadDecoder reads typed values out of WorkloadOptions,
	// collecting conversion errors and unknown keys for Finish.
	WorkloadDecoder = workload.Decoder
)

// WorkloadSpec registers a named workload factory. What a workload
// deploys is its instance's Contracts(); the spec does not repeat it.
type WorkloadSpec struct {
	// Name is the registry key (the CLI's -workload value).
	Name string
	// Description is a one-line summary shown in CLI usage listings.
	Description string
	// New builds a workload instance from options. On error the
	// returned workload is ignored.
	New func(opts WorkloadOptions) (Workload, error)
}

var (
	workloadMu    sync.RWMutex
	workloadSpecs = make(map[string]WorkloadSpec)
)

// NewWorkloadDecoder wraps options for typed access inside a workload
// factory; call Finish after reading to surface malformed values and
// misspelled keys.
func NewWorkloadDecoder(opts WorkloadOptions) *WorkloadDecoder {
	return workload.NewDecoder(opts)
}

// RegisterWorkload plugs a workload spec into the framework, making it
// reachable from NewWorkload, the CLI and the experiments. It errors on
// a duplicate or empty name and on a missing factory.
func RegisterWorkload(s WorkloadSpec) error {
	if s.Name == "" {
		return fmt.Errorf("workload: Register: empty name")
	}
	if s.New == nil {
		return fmt.Errorf("workload: Register(%q): New factory is mandatory", s.Name)
	}
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if _, dup := workloadSpecs[s.Name]; dup {
		return fmt.Errorf("workload: Register(%q): already registered", s.Name)
	}
	workloadSpecs[s.Name] = s
	return nil
}

// mustRegisterWorkload is RegisterWorkload for the shipped workloads'
// init blocks: it panics on error.
func mustRegisterWorkload(s WorkloadSpec) {
	if err := RegisterWorkload(s); err != nil {
		panic(err)
	}
}

// NewWorkload builds a registered workload by name. Options not
// understood by the workload are an error, as are malformed values.
func NewWorkload(name string, opts WorkloadOptions) (Workload, error) {
	workloadMu.RLock()
	s, ok := workloadSpecs[name]
	workloadMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown name %q (registered: %v)", name, Workloads())
	}
	w, err := s.New(opts)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	return w, nil
}

// MustWorkload is NewWorkload for tests, benchmarks and experiment
// tables whose workload names are static: it panics on error.
func MustWorkload(name string, opts WorkloadOptions) Workload {
	w, err := NewWorkload(name, opts)
	if err != nil {
		panic(err)
	}
	return w
}

// Workloads lists registered workload names in sorted order —
// deterministic regardless of which file's init ran first.
func Workloads() []string {
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	out := make([]string, 0, len(workloadSpecs))
	for name := range workloadSpecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WorkloadDescribe returns the one-line summary of a registered
// workload ("" if unknown).
func WorkloadDescribe(name string) string {
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	return workloadSpecs[name].Description
}

// WorkloadContracts returns the contracts a registered workload deploys:
// those of an instance built with no options (nil if unknown).
func WorkloadContracts(name string) []string {
	w, err := NewWorkload(name, nil)
	if err != nil {
		return nil
	}
	return w.Contracts()
}
