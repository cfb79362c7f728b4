package blockbench

import (
	"fmt"

	"blockbench/internal/sharding"
	"blockbench/internal/workload"
)

// KeyedWorkload is an optional Workload extension: KeyOf names the
// state keys one operation addresses, without executing it. The sharded
// platform's tooling uses the hint to reason about key placement — the
// partitioner skew check draws operations and buckets their keys by
// shard, and the shard-scaling benchmark reports each workload's
// cross-shard touch rate alongside its throughput. Built-in contract
// workloads delegate to the same per-contract extractors the sharded
// router itself uses (sharding.ContractKeys), so the hint and the
// actual routing always agree.
type KeyedWorkload interface {
	// KeyOf returns the state keys op addresses (nil when unknown).
	KeyOf(op Op) [][]byte
}

// OpKeys extracts the state keys an operation addresses through the
// per-contract extractor registry shared with the sharded router
// (sharding.RegisterContractKeys). It is the canonical KeyOf
// implementation for contract-backed workloads.
func OpKeys(op Op) [][]byte {
	return sharding.ContractKeys(op.Contract, op.Method, op.Args)
}

// Workload-registry bridge: the application-layer mirror of the
// platform registry. Every shipped workload registers itself in its own
// file through workload.Register; the CLI, experiments and framework
// users build instances by name with NewWorkload, so adding a workload
// needs no CLI or experiment edits.

type (
	// WorkloadSpec registers a named workload factory.
	WorkloadSpec = workload.Spec
	// WorkloadOptions carries -wopt key=val parameters into a factory.
	WorkloadOptions = workload.Options
	// WorkloadDecoder reads typed values out of WorkloadOptions,
	// collecting conversion errors and unknown keys for Finish.
	WorkloadDecoder = workload.Decoder
)

// NewWorkloadDecoder wraps options for typed access inside a workload
// factory; call Finish after reading to surface malformed values and
// misspelled keys.
func NewWorkloadDecoder(opts WorkloadOptions) *WorkloadDecoder {
	return workload.NewDecoder(opts)
}

// RegisterWorkload plugs a workload spec into the framework, making it
// reachable from NewWorkload, the CLI and the experiments.
func RegisterWorkload(s WorkloadSpec) error { return workload.Register(s) }

// NewWorkload builds a registered workload by name. Options not
// understood by the workload are an error, as are malformed values.
func NewWorkload(name string, opts WorkloadOptions) (Workload, error) {
	v, err := workload.New(name, opts)
	if err != nil {
		return nil, err
	}
	w, ok := v.(Workload)
	if !ok {
		return nil, fmt.Errorf("workload: %s factory returned %T, which does not implement blockbench.Workload", name, v)
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

// Workloads lists registered workload names in sorted order.
func Workloads() []string { return workload.Names() }

// WorkloadDescribe returns the one-line summary of a registered
// workload ("" if unknown).
func WorkloadDescribe(name string) string { return workload.Describe(name) }

// WorkloadContracts returns the contracts a registered workload deploys
// without instantiating it (nil if unknown).
func WorkloadContracts(name string) []string { return workload.Contracts(name) }
