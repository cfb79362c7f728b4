package platform

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/contracts"
	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/metrics"
	"blockbench/internal/state"
	"blockbench/internal/types"
	"blockbench/internal/workload"
)

// StateFactory opens a state database at the given root (one factory per
// node; platforms without state versioning may return a singleton).
type StateFactory func(root types.Hash) (*state.DB, error)

// Env carries the cluster-level identity material presets may need when
// assembling a node: the deterministic node identities (PoA authorities,
// Raft/PBFT replica set), the account keyring for server-side signing,
// and the keys of every authenticated participant.
type Env struct {
	// Authorities are the node identities in node-index order.
	Authorities []types.Address
	// Keyring maps client accounts to their keys (server-side signing).
	Keyring map[types.Address]*crypto.Key
	// Keys holds every participant (clients then nodes). Registries are
	// built per node from this list: crypto.Registry caches verification
	// per transaction, and each node must pay the signature-check cost
	// itself, as in the real systems.
	Keys []*crypto.Key
}

// newRegistry builds one node's signature registry over all
// participants.
func (env *Env) newRegistry() *crypto.Registry {
	reg := crypto.NewRegistry()
	for _, k := range env.Keys {
		reg.Add(k)
	}
	return reg
}

// Preset describes how one platform kind is assembled from the substrate
// packages: which state store and state organization it uses, which
// execution engine and per-element memory cost model, which consensus
// protocol, and how its nodes ingest transactions. A Preset in the
// presets table is a platform: the driver, workloads, experiments and
// CLI pick it up through platform.Kinds.
//
// A preset owns its tuning knobs: its file declares a private option
// struct, and Build is the only place that reads them out of
// Config.Options (-popt key=val).
type Preset struct {
	// Kind is the preset's name (the CLI's -platform value).
	Kind Kind
	// Describe is a one-line summary shown in CLI usage listings.
	Describe string

	// ServerSigns moves transaction signing into the server's serial
	// ingestion path (Parity); clients submit unsigned transactions.
	ServerSigns bool
	// SupportsForks enables side chains and reorgs in the ledger (PoW,
	// PoA). Agreement-based platforms (PBFT, Raft) never fork.
	SupportsForks bool
	// DurableRecovery makes a killed node restart from its persisted
	// store: committed blocks are journaled on the ledger commit path
	// and replayed into a fresh chain on Cluster.Recover, and the
	// consensus engine gets a MetaStore for its hard state (Raft
	// term/vote/applied). Presets without it restart empty and rejoin
	// through the chain-sync protocol alone.
	DurableRecovery bool
	// ConfirmationDepth hides the newest blocks from pollers until buried
	// this deep (0: blocks are final on commit).
	ConfirmationDepth uint64

	// Build resolves the preset's knobs once per cluster: it starts from
	// the engines' own DefaultOptions, overlays cfg.Options through d
	// (rejecting values that fail validation — a -popt heartbeat=bogus
	// must fail loudly, not run the default) and returns the node
	// constructors closed over the result. The keys Build reads from d
	// are the preset's whole option surface: New calls d.Finish right
	// after, so any other key is an error that names the ones it took.
	// Build may fold the storage keys into cfg's typed DataDir and
	// StoreBackend; cfg is otherwise read-only.
	Build func(cfg *Config, d *workload.Decoder) (*Assembly, error)
}

// Assembly is one cluster's resolved preset: the knob values buildNode
// reads itself, and the per-node constructors closed over the rest.
// buildNode calls the constructors once per node, and again when
// Recover rebuilds one.
type Assembly struct {
	// IngestCost is the per-transaction server processing time of a
	// ServerSigns preset.
	IngestCost time.Duration
	// Workers sizes the intra-block parallel executor (1 is the serial
	// path through it; the block outcome is byte-identical to serial at
	// any count, see internal/exec/parallel). 0 builds none: hyperledger
	// keeps the strictly serial Fabric v0.6 pipeline.
	Workers int
	// Index maintains the per-node columnar analytics index on the
	// ledger commit path; without it node analytics queries error.
	Index bool

	// OpenStore opens node i's storage engine. Optional: the default is
	// defaultOpenStore's shared policy.
	OpenStore func(i int) (kvstore.Store, error)
	// NewEngine builds a node's execution engine.
	NewEngine func() (exec.Engine, error)
	// NewStateFactory builds the per-node state-database factory over the
	// node's store, plus any per-node counter sources the state layer
	// owns (the flat snapshot layer's hit/miss counters); providers flow
	// into Cluster.Counters alongside the consensus and execution
	// engines.
	NewStateFactory func(store kvstore.Store) (StateFactory, []metrics.CounterProvider, error)
	// NewConsensus builds the factory producing one node's consensus
	// engine; env carries the cluster identity material.
	NewConsensus func(env *Env) func(consensus.Context) consensus.Engine
}

// Lookup returns the preset for a kind.
func Lookup(kind Kind) (*Preset, error) {
	for _, p := range presets {
		if p.Kind == kind {
			return p, nil
		}
	}
	return nil, fmt.Errorf("platform: unknown kind %q (known: %v)", kind, Kinds())
}

// Kinds lists the presets in sorted (name) order, so CLI listings,
// experiment columns and tests are deterministic.
func Kinds() []Kind {
	out := make([]Kind, len(presets))
	for i, p := range presets {
		out[i] = p.Kind
	}
	return out
}

// Describe returns the one-line summary of a kind ("" if unknown).
func Describe(kind Kind) string {
	if p, err := Lookup(kind); err == nil {
		return p.Describe
	}
	return ""
}

// positive rejects a decoded count or duration that is not above zero:
// a pool of no workers or a zero-length timer cannot run, and silently
// falling back to the default would make the knob lie.
func positive[T int | uint64 | time.Duration](d *workload.Decoder, key string, v T) T {
	if v <= 0 {
		d.Reject(key, "want a positive value")
	}
	return v
}

// decodeStore folds -popt store=mem|lsm and storedir=DIR (which implies
// lsm) into the typed Config fields, for the presets whose storage
// engine is selectable (hyperledger keeps its fixed RocksDB-modelled
// default and takes neither). An LSM run that names no directory gets
// an ephemeral one, flagged so Cluster.Close removes it; an explicit
// storedir (or DataDir) is the caller's to keep.
func decodeStore(cfg *Config, d *workload.Decoder) error {
	cfg.StoreBackend = d.String("store", cfg.StoreBackend)
	switch cfg.StoreBackend {
	case "", "mem", "lsm":
	default:
		return fmt.Errorf("store=%q: want mem or lsm", cfg.StoreBackend)
	}
	if d.Has("storedir") {
		switch dir := d.String("storedir", ""); {
		case dir == "":
			d.Reject("storedir", "empty directory")
		case cfg.StoreBackend == "mem":
			d.Reject("storedir", "conflicts with store=mem")
		default:
			cfg.DataDir, cfg.StoreBackend = dir, "lsm"
		}
	}
	if cfg.StoreBackend == "lsm" && cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "blockbench-lsm-")
		if err != nil {
			return fmt.Errorf("provisioning LSM data dir: %w", err)
		}
		cfg.DataDir, cfg.ephemeralData = dir, true
	}
	return nil
}

// decodeIndex reads -popt index=on|off, the one key every preset takes:
// the analytics index is read-side only — it never affects consensus or
// state — so unlike storage and execution it is uniformly selectable.
func decodeIndex(d *workload.Decoder) bool {
	v := d.String("index", "on")
	if v != "on" && v != "off" {
		d.Reject("index", "want on or off")
	}
	return v != "off"
}

// defaultOpenStore is the shared storage policy: in-memory maps, or the
// LSM engine (one directory per node) when DataDir is set — either
// directly (IOHeavy disk-usage runs) or through -popt store=lsm /
// storedir= (decodeStore). -popt store=mem forces the in-memory map
// even with a DataDir.
func defaultOpenStore(cfg *Config, i int) (kvstore.Store, error) {
	if cfg.StoreBackend == "mem" || cfg.DataDir == "" {
		return kvstore.NewMem(), nil
	}
	return kvstore.OpenLSM(filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i)), kvstore.LSMOptions{})
}

// evmContracts filters cfg.Contracts down to those with an EVM build:
// chaincode-only contracts (VersionKVStore) have no EVM deployment, so
// EVM platforms run only what they can, as in the paper.
func evmContracts(cfg *Config) ([]string, error) {
	var names []string
	for _, name := range cfg.Contracts {
		spec, err := contracts.Lookup(name)
		if err != nil {
			return nil, err
		}
		if spec.EVM != nil {
			names = append(names, name)
		}
	}
	return names, nil
}
