package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"blockbench/internal/analytics"
	"blockbench/internal/bmt"
	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/exec/parallel"
	"blockbench/internal/kvstore"
	"blockbench/internal/metrics"
	"blockbench/internal/mpt"
	"blockbench/internal/simnet"
	"blockbench/internal/state"
	"blockbench/internal/trace"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// Layer probes time one layer from outside, by calling its exported
// functions on one goroutine with a fixed operation count. A probe
// function runs one repeat: it prepares its inputs untimed, times the
// operations, verifies what they produced and reports each metric it
// covers. Inputs are the same on every run; probes do not take the seed
// because they are fixed-size micro measurements, not workloads.
const probeRepeats = 5

// probeOut collects one repeat's numbers: metric name to value.
type probeOut map[string]float64

type probe struct {
	Name string // span name: <layer>.<op>
	Run  func(dir string) (probeOut, error)
}

var probes = []probe{
	{"crypto.sign_verify", probeCrypto},
	{"types.block_encode", probeBlockEncode},
	{"txpool.add_batch", probeTxpool},
	{"simnet.hop", probeSimnet},
	{"exec.evm", func(string) (probeOut, error) { return probeEngine("evm") }},
	{"exec.chaincode", func(string) (probeOut, error) { return probeEngine("chaincode") }},
	{"parallel.block128", probeParallel},
	{"mpt.put_get_commit", probeMPT},
	{"bmt.commit", probeBMT},
	{"kvstore.lsm", probeLSM},
	{"kvstore.mem", probeMem},
	{"state.flat", probeFlat},
	{"analytics.index", probeAnalytics},
	{"trace.stamp", probeTrace},
	{"metrics.observe", probeObserve},
}

// runProbes runs every probe probeRepeats times under a "probe" span and
// returns the per-metric medians plus the verification failures.
func runProbes(rec *recorder, outDir string) (map[string]value, []string) {
	root := rec.begin("probe", "", 0)
	defer rec.end(root)
	dir := filepath.Join(outDir, "data", fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	samples := make(map[string][]float64)
	var problems []string
	for _, p := range probes {
		for r := 0; r < probeRepeats; r++ {
			sp := rec.begin(p.Name, "", root)
			out, err := p.Run(filepath.Join(dir, fmt.Sprintf("%s-%d", p.Name, r)))
			rec.end(sp)
			if err != nil {
				problems = append(problems, fmt.Sprintf("probe %s: %v", p.Name, err))
				break
			}
			for k, v := range out {
				samples[k] = append(samples[k], v)
			}
		}
	}
	vals := make(map[string]value, len(samples))
	for k, xs := range samples {
		vals[k] = value{V: median(xs), N: len(xs)}
	}
	return vals, problems
}

// per returns the mean cost of one of n operations in the given unit.
func per(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

func probeTx(i int) *types.Transaction {
	return &types.Transaction{Nonce: uint64(i), Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte(fmt.Sprintf("user%010d", i)), make([]byte, 100)}, GasLimit: 500_000}
}

func probeCrypto(string) (probeOut, error) {
	const n = 200
	key := crypto.DeterministicKey(7)
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = probeTx(i)
		txs[i].From = key.Address()
		txs[i].Hash() // pin the cached hash outside the timed section
	}
	t0 := time.Now()
	for _, tx := range txs {
		if err := crypto.SignTx(tx, key); err != nil {
			return nil, err
		}
	}
	sign := time.Since(t0)
	// The registry caches verdicts by transaction hash, so the negative
	// check needs a transaction it has not seen.
	damaged := probeTx(n)
	if err := crypto.SignTx(damaged, key); err != nil {
		return nil, err
	}
	damaged.Sig[0] ^= 0xff
	reg := crypto.NewRegistry()
	reg.Add(key)
	t0 = time.Now()
	for _, tx := range txs {
		if !reg.VerifyTx(tx) {
			return nil, fmt.Errorf("signature does not verify")
		}
	}
	verify := time.Since(t0)
	if reg.VerifyTx(damaged) {
		return nil, fmt.Errorf("a damaged signature verifies")
	}
	return probeOut{"crypto.sign_us": per(sign, n, time.Microsecond),
		"crypto.verify_us": per(verify, n, time.Microsecond)}, nil
}

func probeBlockEncode(string) (probeOut, error) {
	const n, blockTxs = 200, 20
	key := crypto.DeterministicKey(7)
	txs := make([]*types.Transaction, blockTxs)
	for i := range txs {
		txs[i] = probeTx(i)
		if err := crypto.SignTx(txs[i], key); err != nil {
			return nil, err
		}
	}
	b := &types.Block{Header: types.Header{Number: 1, Time: 1, Difficulty: 1}, Txs: txs}
	var enc []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		enc = types.EncodeBlock(b)
	}
	took := time.Since(t0)
	back, err := types.DecodeBlock(enc)
	if err != nil {
		return nil, err
	}
	if len(back.Txs) != blockTxs || back.Txs[blockTxs-1].Hash() != txs[blockTxs-1].Hash() {
		return nil, fmt.Errorf("decoded block differs from the encoded one")
	}
	return probeOut{"types.block_encode_us": per(took, n, time.Microsecond)}, nil
}

func probeTxpool(string) (probeOut, error) {
	const n, batch = 4096, 20
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = probeTx(i)
		txs[i].Hash()
	}
	p := txpool.New(0)
	t0 := time.Now()
	for _, tx := range txs {
		p.Add(tx)
	}
	add := time.Since(t0)
	if p.Len() != n {
		return nil, fmt.Errorf("pool holds %d of %d added", p.Len(), n)
	}
	seen := make(map[types.Hash]bool, n)
	t0 = time.Now()
	for {
		b := p.Batch(batch, 0)
		if len(b) == 0 {
			break
		}
		p.MarkIncluded(b)
		for _, tx := range b {
			seen[tx.Hash()] = true
		}
	}
	drain := time.Since(t0)
	if len(seen) != n || p.Len() != 0 {
		return nil, fmt.Errorf("batches returned %d distinct of %d, %d left", len(seen), n, p.Len())
	}
	return probeOut{"txpool.add_ns": per(add, n, time.Nanosecond),
		"txpool.batch_ns_per_tx": per(drain, n, time.Nanosecond)}, nil
}

func probeSimnet(string) (probeOut, error) {
	const n = 100
	net := simnet.New(simnet.DefaultConfig())
	defer net.Close()
	a, b := net.Join(0), net.Join(1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if !a.Send(1, "ping", i) {
			return nil, fmt.Errorf("send %d dropped at origin", i)
		}
		select {
		case m := <-b.Inbox:
			if m.Payload != i {
				return nil, fmt.Errorf("hop %d delivered payload %v", i, m.Payload)
			}
		case <-time.After(time.Second):
			return nil, fmt.Errorf("hop %d not delivered within 1s", i)
		}
	}
	return probeOut{"simnet.hop_us": per(time.Since(t0), n, time.Microsecond)}, nil
}

// probeEngine times contract execution through one engine: a YCSB write
// (the macro workloads' unit of work) and a 1000-element sort (CPUHeavy).
func probeEngine(kind string) (probeOut, error) {
	const writes, sorts = 500, 3
	var eng exec.Engine
	var err error
	if kind == "evm" {
		eng, err = exec.NewEVMEngine(exec.MemModel{}, "ycsb", "cpuheavy")
	} else {
		eng, err = exec.NewNativeEngine("ycsb", "cpuheavy")
	}
	if err != nil {
		return nil, err
	}
	backend, err := state.NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		return nil, err
	}
	db := state.NewDB(backend)
	txs := make([]*types.Transaction, writes)
	for i := range txs {
		txs[i] = probeTx(i)
		txs[i].Args[1][0] = byte(i)
	}
	t0 := time.Now()
	for _, tx := range txs {
		if r := eng.Execute(db, tx, 1); !r.OK {
			return nil, fmt.Errorf("%s ycsb write failed: %s", kind, r.Err)
		}
	}
	write := time.Since(t0)
	last := txs[writes-1]
	if got, err := eng.Query(db, "ycsb", "read", [][]byte{last.Args[0]}); err != nil || !bytes.Equal(got, last.Args[1]) {
		return nil, fmt.Errorf("%s ycsb read returned %d bytes, err %v; want the written value", kind, len(got), err)
	}
	sortTx := &types.Transaction{Contract: "cpuheavy", Method: "sort",
		Args: [][]byte{types.U64Bytes(1000)}, GasLimit: 1 << 50}
	t0 = time.Now()
	for i := 0; i < sorts; i++ {
		sortTx.Nonce = uint64(i)
		// The contract returns a[0] after sorting n descending integers,
		// which is 1 exactly when the array ended up sorted.
		// (The EVM returns the word little-endian, chaincode big-endian.)
		if r := eng.Execute(db, sortTx, 1); !r.OK || !bytes.Equal(bytes.Trim(r.Output, "\x00"), []byte{1}) {
			return nil, fmt.Errorf("%s sort: ok=%v output=%x err=%s", kind, r.OK, r.Output, r.Err)
		}
	}
	sorted := time.Since(t0)
	return probeOut{kind + ".ycsb_write_us": per(write, writes, time.Microsecond),
		kind + ".sort1k_ms": per(sorted, sorts, time.Millisecond)}, nil
}

// probeParallel executes one 128-transaction YCSB block with 1 and with 4
// workers on the same parent state; both must reach the same root.
func probeParallel(string) (probeOut, error) {
	const blockTxs, records = 128, 500
	eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	if err != nil {
		return nil, err
	}
	store := kvstore.NewMem()
	backend, err := state.NewTrieBackend(store, types.ZeroHash, 0)
	if err != nil {
		return nil, err
	}
	db := state.NewDB(backend)
	for i := 0; i < records; i++ {
		if r := eng.Execute(db, probeTx(i), 0); !r.OK {
			return nil, fmt.Errorf("preload failed: %s", r.Err)
		}
	}
	parent, err := db.Commit()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	txs := make([]*types.Transaction, blockTxs)
	for i := range txs {
		txs[i] = probeTx(rng.Intn(records))
		txs[i].Nonce = uint64(1000 + i)
		txs[i].Args[1][0] = byte(i)
	}
	out := probeOut{}
	var roots []types.Hash
	for _, workers := range []int{1, 4} {
		b, err := state.NewTrieBackend(store, parent, 0)
		if err != nil {
			return nil, err
		}
		blockDB := state.NewDB(b)
		t0 := time.Now()
		receipts := parallel.New(workers).ExecuteBlock(eng, blockDB, txs, 1)
		out[fmt.Sprintf("parallel.block128_w%d_ms", workers)] = per(time.Since(t0), 1, time.Millisecond)
		for _, r := range receipts {
			if !r.OK {
				return nil, fmt.Errorf("workers=%d: tx failed: %s", workers, r.Err)
			}
		}
		root, err := blockDB.Commit()
		if err != nil {
			return nil, err
		}
		roots = append(roots, root)
	}
	if roots[0] != roots[1] {
		return nil, fmt.Errorf("parallel root %x differs from serial root %x", roots[1][:4], roots[0][:4])
	}
	return out, nil
}

func probeKey(i int) []byte { return []byte(fmt.Sprintf("key-%09d", i)) }

func probeVal(i int) []byte {
	v := make([]byte, 100)
	v[0], v[1] = byte(i), byte(i>>8)
	return v
}

func probeMPT(string) (probeOut, error) {
	const n = 2000
	tr, err := mpt.New(kvstore.NewMem(), types.ZeroHash)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := tr.Put(probeKey(i), probeVal(i)); err != nil {
			return nil, err
		}
	}
	put := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if v, err := tr.Get(probeKey(i)); err != nil || !bytes.Equal(v, probeVal(i)) {
			return nil, fmt.Errorf("get %d returned %d bytes, err %v; want the put value", i, len(v), err)
		}
	}
	get := time.Since(t0)
	commit, err := commit1k(tr.Put, tr.Commit)
	if err != nil {
		return nil, err
	}
	return probeOut{"mpt.put_us": per(put, n, time.Microsecond), "mpt.get_us": per(get, n, time.Microsecond),
		"mpt.commit1k_ms": commit}, nil
}

func probeBMT(string) (probeOut, error) {
	tr, err := bmt.New(kvstore.NewMem(), bmt.Options{})
	if err != nil {
		return nil, err
	}
	commit, err := commit1k(tr.Put, tr.Commit)
	if err != nil {
		return nil, err
	}
	return probeOut{"bmt.commit1k_ms": commit}, nil
}

// commit1k dirties 1000 fresh keys untimed and times the commit; a
// second commit with nothing dirty must return the same root.
func commit1k(put func(k, v []byte) error, commit func() (types.Hash, error)) (float64, error) {
	for i := 0; i < 1000; i++ {
		if err := put(probeKey(1_000_000+i), probeVal(i)); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	root, err := commit()
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if again, err := commit(); err != nil || again != root || root == types.ZeroHash {
		return 0, fmt.Errorf("commit root %x, recommit %x, err %v", root[:4], again[:4], err)
	}
	return per(took, 1, time.Millisecond), nil
}

func probeLSM(dir string) (probeOut, error) {
	const n = 5000
	s, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Put(probeKey(i), probeVal(i)); err != nil {
			return nil, err
		}
	}
	put := time.Since(t0)
	// Reads are timed against sorted runs, not the memtable.
	if err := s.Flush(); err != nil {
		return nil, err
	}
	get, err := timeGets(s, n)
	if err != nil {
		return nil, err
	}
	var prev []byte
	rows := 0
	t0 = time.Now()
	err = s.Iterate(probeKey(1000), probeKey(2000), func(k, _ []byte) bool {
		if bytes.Compare(prev, k) >= 0 {
			rows = -1 << 30
		}
		prev = append(prev[:0], k...)
		rows++
		return true
	})
	scan := time.Since(t0)
	if err != nil || rows != 1000 {
		return nil, fmt.Errorf("scan of 1000 keys returned %d ascending rows, err %v", rows, err)
	}
	return probeOut{"kvstore.lsm_put_us": per(put, n, time.Microsecond),
		"kvstore.lsm_get_us": per(get, n, time.Microsecond), "kvstore.lsm_scan1k_ms": per(scan, 1, time.Millisecond)}, nil
}

func probeMem(string) (probeOut, error) {
	const n = 20000
	s := kvstore.NewMem()
	for i := 0; i < n; i++ {
		if err := s.Put(probeKey(i), probeVal(i)); err != nil {
			return nil, err
		}
	}
	get, err := timeGets(s, n)
	if err != nil {
		return nil, err
	}
	return probeOut{"kvstore.mem_get_us": per(get, n, time.Microsecond)}, nil
}

func timeGets(s kvstore.Store, n int) (time.Duration, error) {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = probeKey(i * 7919 % n)
	}
	t0 := time.Now()
	for i, k := range keys {
		if v, ok, err := s.Get(k); err != nil || !ok || v[0] != byte(i*7919%n) {
			return 0, fmt.Errorf("get %s: ok=%v err=%v; want the put value", k, ok, err)
		}
	}
	return time.Since(t0), nil
}

func probeFlat(string) (probeOut, error) {
	const n = 2048 // within the 4096-entry LRU the presets configure
	f := state.NewFlatState(kvstore.NewMem(), 4096)
	writes := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		writes[string(probeKey(i))] = probeVal(i)
	}
	root := types.HashData([]byte("probe-root"))
	f.Advance(types.ZeroHash, root, writes)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = probeKey(i)
	}
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, k := range keys {
			if v, ok := f.Get(root, k); !ok || v[0] != byte(i) {
				return nil, fmt.Errorf("flat get %d: ok=%v; want a hit with the written value", i, ok)
			}
		}
	}
	took := time.Since(t0)
	if hits := f.Counters()["store.flat_hits"]; hits != n*rounds {
		return nil, fmt.Errorf("flat layer counted %d hits of %d reads", hits, n*rounds)
	}
	return probeOut{"state.flat_hit_ns": per(took, n*rounds, time.Nanosecond)}, nil
}

// probeAnalytics builds a 10k-block transfer index (3 transactions per
// block over 8 accounts, the paper's analytics shape) and queries it.
func probeAnalytics(string) (probeOut, error) {
	const blocks, perBlock, accounts, queries = 10_000, 3, 8, 20
	addrs := make([]types.Address, accounts)
	for i := range addrs {
		addrs[i] = crypto.DeterministicKey(uint64(100 + i)).Address()
	}
	rng := rand.New(rand.NewSource(7))
	chain := make([]*types.Block, blocks)
	var total uint64
	for h := range chain {
		txs := make([]*types.Transaction, perBlock)
		for i := range txs {
			v := uint64(1 + rng.Intn(100))
			total += v
			txs[i] = &types.Transaction{Nonce: uint64(h*perBlock + i), From: addrs[rng.Intn(accounts)],
				To: addrs[rng.Intn(accounts)], Value: v, GasLimit: 21_000}
		}
		chain[h] = &types.Block{Header: types.Header{Number: uint64(h + 1), Time: int64(h + 1)}, Txs: txs}
	}
	receipts := make([]*types.Receipt, perBlock)
	for i := range receipts {
		receipts[i] = &types.Receipt{OK: true}
	}
	ix := analytics.NewIndexer(nil, analytics.Options{})
	t0 := time.Now()
	for _, b := range chain {
		if err := ix.Apply(b, receipts); err != nil {
			return nil, err
		}
	}
	apply := time.Since(t0)
	if ix.Rows() != blocks*perBlock {
		return nil, fmt.Errorf("index holds %d rows of %d", ix.Rows(), blocks*perBlock)
	}
	t0 = time.Now()
	for i := 0; i < queries; i++ {
		res, err := ix.Query(analytics.Query{Op: analytics.OpSum, From: 1, To: blocks + 1})
		if err != nil || res.Value != total {
			return nil, fmt.Errorf("sum query returned %d, err %v; want %d", res.Value, err, total)
		}
	}
	sum := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < queries; i++ {
		res, err := ix.Query(analytics.Query{Op: analytics.OpTopK, From: 1, To: blocks + 1, Account: addrs[0], K: 3})
		if err != nil || len(res.Top) != 3 || res.Top[0].Count < res.Top[2].Count {
			return nil, fmt.Errorf("topk query returned %d rows, err %v; want 3 in descending count", len(res.Top), err)
		}
	}
	topk := time.Since(t0)
	return probeOut{"analytics.apply_us_per_row": per(apply, blocks*perBlock, time.Microsecond),
		"analytics.sum_us": per(sum, queries, time.Microsecond), "analytics.topk_us": per(topk, queries, time.Microsecond)}, nil
}

// probeTrace times the tracer's stamp site with sampling off (the
// configuration every end-to-end number is measured in) and on.
func probeTrace(string) (probeOut, error) {
	const n = 20000
	ids := make([]types.Hash, n)
	for i := range ids {
		ids[i] = probeTx(i).Hash()
	}
	t := trace.New()
	out := probeOut{}
	for _, on := range []bool{false, true} {
		name, sample := "trace.stamp_off_ns", -1.0
		if on {
			name, sample = "trace.stamp_on_ns", 1.0
		}
		t.Reset(max(sample, 0))
		t0 := time.Now()
		for _, id := range ids {
			t.Stamp(id, trace.StageSubmit)
			t.Stamp(id, trace.StageAdmit)
		}
		out[name] = per(time.Since(t0), 2*n, time.Nanosecond)
		want := uint64(0)
		if on {
			want = n
		}
		if got := t.SampledCount(); got != want {
			return nil, fmt.Errorf("tracer sampled %d spans with sampling on=%v; want %d", got, on, want)
		}
	}
	return out, nil
}

func probeObserve(string) (probeOut, error) {
	const n = 100_000
	var h metrics.Histogram
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	took := time.Since(t0)
	if h.Count() != n || h.Quantile(1) != (time.Duration(n-1)*time.Microsecond).Seconds() {
		return nil, fmt.Errorf("histogram holds %d of %d samples, max %g", h.Count(), n, h.Quantile(1))
	}
	return probeOut{"metrics.observe_ns": per(took, n, time.Nanosecond)}, nil
}
