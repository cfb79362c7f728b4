package platform

import (
	"strings"
	"testing"

	"blockbench/internal/exec"
)

func TestNewUnknownKindErrors(t *testing.T) {
	_, err := New(Config{Kind: "no-such-platform", Nodes: 2})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The error names the known kinds so -platform typos are
	// self-explaining.
	if !strings.Contains(err.Error(), string(Quorum)) {
		t.Fatalf("error does not list the known kinds: %v", err)
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

// TestKindsSortedAndStable: the listing is strictly increasing, so help
// text, smoke jobs and experiment columns are deterministic and no kind
// appears twice.
func TestKindsSortedAndStable(t *testing.T) {
	kinds := Kinds()
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatalf("Kinds() not strictly increasing at %d: %v", i, kinds)
		}
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

// TestBootAllBuiltinPlatforms is the preset smoke test: every builtin
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
