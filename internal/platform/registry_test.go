package platform

import (
	"sort"
	"strings"
	"testing"

	"blockbench/internal/exec"
)

// stubPreset returns a minimal valid preset under the given kind.
func stubPreset(kind Kind) *Preset {
	base := ethereumPreset()
	base.Kind = kind
	base.Describe = "test stub"
	return base
}

func TestRegisterDuplicateKindErrors(t *testing.T) {
	kind := Kind("registry-test-dup")
	// The registry is process-global, so a previous run of this test (go
	// test -count=N) may already have claimed the kind.
	if err := Register(stubPreset(kind)); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("first Register: %v", err)
	}
	err := Register(stubPreset(kind))
	if err == nil {
		t.Fatal("duplicate Register accepted")
	}
	if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("unexpected duplicate error: %v", err)
	}
}

func TestRegisterRejectsInvalidPresets(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Fatal("nil preset accepted")
	}
	if err := Register(&Preset{}); err == nil {
		t.Fatal("empty kind accepted")
	}
	p := stubPreset("registry-test-incomplete")
	p.Build = nil
	if err := Register(p); err == nil {
		t.Fatal("preset without a Build hook accepted")
	}
}

func TestNewUnknownKindErrors(t *testing.T) {
	_, err := New(Config{Kind: "no-such-platform", Nodes: 2})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The error names the registered kinds so -platform typos are
	// self-explaining.
	if !strings.Contains(err.Error(), string(Quorum)) {
		t.Fatalf("error does not list registered kinds: %v", err)
	}
}

func TestKindsIncludeAllBuiltins(t *testing.T) {
	have := make(map[Kind]bool)
	for _, k := range Kinds() {
		have[k] = true
	}
	for _, k := range []Kind{Ethereum, Parity, Hyperledger, Quorum, Sharded} {
		if !have[k] {
			t.Fatalf("builtin %q missing from Kinds(): %v", k, Kinds())
		}
		if Describe(k) == "" {
			t.Fatalf("builtin %q has no description", k)
		}
	}
}

// TestKindsSortedAndStable: the listing is sorted, so help text, smoke
// jobs and experiment columns are deterministic regardless of init
// (registration) order.
func TestKindsSortedAndStable(t *testing.T) {
	kinds := Kinds()
	if !sort.SliceIsSorted(kinds, func(i, j int) bool { return kinds[i] < kinds[j] }) {
		t.Fatalf("Kinds() not sorted: %v", kinds)
	}
	again := Kinds()
	if len(again) != len(kinds) {
		t.Fatalf("Kinds() unstable: %v vs %v", kinds, again)
	}
	for i := range kinds {
		if kinds[i] != again[i] {
			t.Fatalf("Kinds() unstable at %d: %v vs %v", i, kinds, again)
		}
	}
}

// TestBootAllBuiltinPlatforms is the registry smoke test: every builtin
// preset assembles, starts, commits a short YCSB run through consensus,
// and shuts down.
func TestBootAllBuiltinPlatforms(t *testing.T) {
	for _, kind := range []Kind{Ethereum, Parity, Hyperledger, Quorum} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			runCommitTest(t, kind, 4, 20)
		})
	}
}

// TestPresetHooksDriveNodeAssembly spot-checks that preset flags reach
// the assembled cluster (server-side signing, execution engines).
func TestPresetHooksDriveNodeAssembly(t *testing.T) {
	keys := clientKeys(1)
	for _, tc := range []struct {
		kind        Kind
		serverSigns bool
		native      bool
	}{
		{Ethereum, false, false},
		{Parity, true, false},
		{Hyperledger, false, true},
		{Quorum, false, false},
		{Sharded, false, false},
	} {
		c, err := New(fastConfig(tc.kind, 2, keys))
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if c.ServerSigns() != tc.serverSigns {
			t.Errorf("%s: ServerSigns = %v", tc.kind, c.ServerSigns())
		}
		_, isNative := c.Engine(0).(*exec.NativeEngine)
		if isNative != tc.native {
			t.Errorf("%s: native engine = %v", tc.kind, isNative)
		}
		c.Stop()
		c.Close()
	}
}
