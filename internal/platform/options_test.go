package platform

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"blockbench/internal/consensus/pbft"
	"blockbench/internal/consensus/poa"
	"blockbench/internal/consensus/pow"
	"blockbench/internal/consensus/raft"
	"blockbench/internal/workload"
)

// TestGoldenDefaults pins what every preset resolves to when no option
// is given. The literals were captured from the tree before the knobs
// moved out of Config; DESIGN.md's -popt table restates them. A changed
// default must change this test and that table together.
func TestGoldenDefaults(t *testing.T) {
	const ms = time.Millisecond
	none := func() *workload.Decoder { return workload.NewDecoder(nil) }
	cfg := &Config{Nodes: 4}
	wantRaft := quorumOptions{
		raft: raft.Options{ElectionTimeout: 300 * ms, Heartbeat: 20 * ms, BatchSize: 20,
			BatchTimeout: 10 * ms, Retain: 4096},
		cache: 4096,
	}
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"ethereum", decodeEthereum(none()), ethereumOptions{
			pow: pow.Options{TargetInterval: 100 * ms, InitialDifficulty: 2_000_000,
				MinDifficulty: 50_000, GasLimit: 650_000},
			cache: 4096,
		}},
		{"parity", decodeParity(none()), parityOptions{
			poa: poa.Options{StepDuration: 40 * ms}, ingest: 180 * ms, memCap: 256 << 20,
		}},
		{"hyperledger", decodeHyperledger(none()), pbft.Options{
			BatchSize: 20, BatchTimeout: 15 * ms, ViewTimeout: 400 * ms,
		}},
		{"quorum", decodeQuorum(cfg, none()), wantRaft},
		{"sharded", decodeSharded(cfg, none()), shardedOptions{quorumOptions: wantRaft, shards: 4}},
		{"sharded/2 nodes", decodeSharded(&Config{Nodes: 2}, none()).shards, 2},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s defaults:\n got %+v\nwant %+v", tc.name, tc.got, tc.want)
		}
	}

	// The values buildNode reads itself, through New.
	for _, tc := range []struct {
		kind    Kind
		depth   uint64
		ingest  time.Duration
		workers int
	}{
		{Ethereum, 2, 0, 1},
		{Parity, 5, 180 * ms, 1},
		{Hyperledger, 0, 0, 0}, // no parallel executor: strictly serial
		{Quorum, 0, 0, 1},
		{Sharded, 0, 0, 1},
	} {
		c, err := New(Config{Kind: tc.kind, Nodes: 4})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		a := c.asm
		if c.ConfirmationDepth() != tc.depth || a.IngestCost != tc.ingest || a.Workers != tc.workers || !a.Index {
			t.Errorf("%s: depth=%d ingest=%v workers=%d index=%v, want %d %v %d true",
				tc.kind, c.ConfirmationDepth(), a.IngestCost, a.Workers, a.Index,
				tc.depth, tc.ingest, tc.workers)
		}
		if c.cfg.StoreBackend != "" || c.cfg.DataDir != "" || c.cfg.RPCLatency != 200*time.Microsecond {
			t.Errorf("%s: store=%q dir=%q rpc=%v, want in-memory store and 200µs",
				tc.kind, c.cfg.StoreBackend, c.cfg.DataDir, c.cfg.RPCLatency)
		}
		c.Close()
	}
}

// TestOptionValidation is the one table of option rejections: nonsense
// values, keys on the wrong preset and misspelled keys must fail New
// loudly — naming the key — instead of silently running the defaults.
func TestOptionValidation(t *testing.T) {
	bad := []struct {
		kind Kind
		opts map[string]string
		want []string // substrings of the error
	}{
		{Quorum, map[string]string{"heartbeat": "bogus"}, []string{"heartbeat", "bogus"}},
		{Quorum, map[string]string{"heartbeat": "-5ms"}, []string{"heartbeat"}},
		{Quorum, map[string]string{"heartbeat": "500ms"}, []string{"heartbeat", "election timeout"}},
		{Quorum, map[string]string{"election": "2ms"}, []string{"heartbeat", "election timeout"}},
		{Quorum, map[string]string{"batch": "0"}, []string{"batch"}},
		{Quorum, map[string]string{"retain": "-1"}, []string{"retain"}},
		{Quorum, map[string]string{"cache": "-1"}, []string{"cache"}},
		{Quorum, map[string]string{"workers": "0"}, []string{"workers"}},
		{Quorum, map[string]string{"workers": "-2"}, []string{"workers"}},
		{Quorum, map[string]string{"workers": "many"}, []string{"workers"}},
		{Ethereum, map[string]string{"workers": "0"}, []string{"workers"}},
		{Parity, map[string]string{"workers": "-1"}, []string{"workers"}},
		{Sharded, map[string]string{"workers": "0"}, []string{"workers"}},
		{Quorum, map[string]string{"store": "foo"}, []string{"store", "foo"}},
		{Quorum, map[string]string{"storedir": ""}, []string{"storedir"}},
		{Quorum, map[string]string{"store": "mem", "storedir": "/tmp/x"}, []string{"storedir", "store=mem"}},
		{Quorum, map[string]string{"index": "maybe"}, []string{"index"}},
		{Ethereum, map[string]string{"block": "0s"}, []string{"block"}},
		{Ethereum, map[string]string{"gas": "0"}, []string{"gas"}},
		{Parity, map[string]string{"memcap": "lots"}, []string{"memcap"}},
		{Hyperledger, map[string]string{"viewtimeout": "soon"}, []string{"viewtimeout"}},
		{Sharded, map[string]string{"shards": "zero"}, []string{"shards"}},
		{Sharded, map[string]string{"shards": "0"}, []string{"shards"}},
		// An unknown key names the keys the preset does take.
		{Quorum, map[string]string{"hartbeat": "10ms"}, []string{"unknown option", "hartbeat", "heartbeat", "election"}},
		// So does a valid key on the wrong preset: hyperledger's Fabric
		// v0.6 pipeline is strictly serial and its store is fixed.
		{Hyperledger, map[string]string{"workers": "4"}, []string{"unknown option", "workers", "batch", "index"}},
		{Hyperledger, map[string]string{"store": "lsm"}, []string{"unknown option", "store"}},
		{Ethereum, map[string]string{"batch": "8"}, []string{"unknown option", "batch", "block", "gas"}},
		{Quorum, map[string]string{"shards": "2"}, []string{"unknown option", "shards"}},
		// Retired keys (each had one value in use) are unknown, not ignored.
		{Quorum, map[string]string{"maxappend": "16"}, []string{"unknown option", "maxappend"}},
		{Quorum, map[string]string{"window": "32"}, []string{"unknown option", "window"}},
		{Sharded, map[string]string{"partitioner": "range"}, []string{"unknown option", "partitioner"}},
		{Sharded, map[string]string{"bounds": "a,b,c"}, []string{"unknown option", "bounds"}},
	}
	for _, tc := range bad {
		cfg := fastConfig(tc.kind, 4, clientKeys(1))
		for k, v := range tc.opts {
			cfg.Options[k] = v
		}
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s %v: accepted", tc.kind, tc.opts)
			continue
		}
		for _, w := range append(tc.want, string(tc.kind)) {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s %v: error %q does not mention %q", tc.kind, tc.opts, err, w)
			}
		}
	}

	good := []struct {
		kind Kind
		opts map[string]string
	}{
		{Quorum, map[string]string{"heartbeat": "10ms", "batch": "8", "retain": "64"}},
		{Quorum, map[string]string{"retain": "0"}},  // the explicit compaction-off switch
		{Ethereum, map[string]string{"cache": "0"}}, // the LRU-off switch
		{Hyperledger, map[string]string{"batch": "10", "index": "off"}},
		{Sharded, map[string]string{"shards": "4", "retain": "0"}},
	}
	for _, tc := range good {
		cfg := fastConfig(tc.kind, 4, clientKeys(1))
		for k, v := range tc.opts {
			cfg.Options[k] = v
		}
		c, err := New(cfg)
		if err != nil {
			t.Errorf("%s %v rejected: %v", tc.kind, tc.opts, err)
			continue
		}
		c.Close()
	}
}

// TestDesignOptionTable holds DESIGN.md's -popt table to the code: per
// preset, the keys with a non-empty cell must be exactly the keys that
// preset's Build consults, as the unknown-key error lists them.
func TestDesignOptionTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "\n## Platform options\n")
	if !found {
		t.Fatal("DESIGN.md has no Platform options section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var kinds []string
	documented := make(map[string][]string)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "| ---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if kinds == nil { // header: key | one column per preset | meaning
			kinds = cells[1 : len(cells)-1]
			continue
		}
		for i, kind := range kinds {
			if cells[1+i] != "" {
				documented[kind] = append(documented[kind], strings.Trim(cells[0], "`"))
			}
		}
	}
	builtin := []Kind{Ethereum, Parity, Hyperledger, Quorum, Sharded}
	if len(kinds) != len(builtin) {
		t.Fatalf("table columns %v, built-in presets %v", kinds, builtin)
	}
	for _, kind := range builtin {
		_, err := New(Config{Kind: kind, Nodes: 4, Options: map[string]string{"no-such-key": "1"}})
		if err == nil {
			t.Fatalf("%s accepted an unknown key", kind)
		}
		_, known, found := strings.Cut(err.Error(), "(known: [")
		if !found {
			t.Fatalf("%s: error %q lists no known keys", kind, err)
		}
		consulted := strings.Fields(strings.TrimSuffix(known, "])"))
		want := documented[string(kind)]
		sort.Strings(want)
		if !reflect.DeepEqual(consulted, want) {
			t.Errorf("%s: Build consults %v, DESIGN.md documents %v", kind, consulted, want)
		}
	}
}

// TestStoreDirLifecycle: an LSM run that names no directory gets a temp
// one that Close removes (and so does a run whose options are rejected
// after it was provisioned); an explicit storedir is the caller's.
func TestStoreDirLifecycle(t *testing.T) {
	cfg := fastConfig(Quorum, 2, clientKeys(1))
	cfg.Options["store"] = "lsm"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tmp := c.cfg.DataDir
	if _, err := os.Stat(tmp); tmp == "" || err != nil {
		t.Fatalf("store=lsm provisioned no data dir (%q): %v", tmp, err)
	}
	c.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Close left the ephemeral data dir %s behind (%v)", tmp, err)
	}

	scratch := t.TempDir()
	t.Setenv("TMPDIR", scratch)
	cfg = fastConfig(Quorum, 2, clientKeys(1))
	cfg.Options["store"], cfg.Options["typo"] = "lsm", "1"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown key accepted")
	}
	if left, _ := os.ReadDir(scratch); len(left) > 0 {
		t.Fatalf("a rejected config leaked its temp data dir %s", left[0].Name())
	}

	dir := t.TempDir()
	cfg = fastConfig(Quorum, 2, clientKeys(1))
	cfg.Options["storedir"] = dir
	if c, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if c.cfg.StoreBackend != "lsm" || c.cfg.DataDir != dir {
		t.Fatalf("storedir: backend=%q dir=%q, want lsm %q", c.cfg.StoreBackend, c.cfg.DataDir, dir)
	}
	c.Close()
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("Close removed or never used the explicit storedir: %v entries, err %v", len(entries), err)
	}
}
