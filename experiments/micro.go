package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"blockbench"
	"blockbench/internal/exec"
	"blockbench/internal/types"
)

// Fig11CPUHeavy reproduces Fig 11: quicksort execution time and peak
// memory at growing input sizes, one server one client. Sizes are the
// paper's 1M/10M/100M divided by 100 (see EXPERIMENTS.md); the memory
// model is fitted so the shape is preserved: Hyperledger's native
// execution is orders of magnitude faster and leaner, Parity's EVM beats
// Ethereum's, and Ethereum runs out of memory at the largest size.
func Fig11CPUHeavy(s Scale) (*Result, error) {
	res := &Result{ID: "fig11", Title: "CPUHeavy: sort time and peak memory (sizes = paper/100)"}
	sizes := []int{10_000, 100_000, 1_000_000}
	if s.Shrink > 1 {
		sizes = []int{40_000 / s.Shrink, 400_000 / s.Shrink}
	}
	for _, kind := range blockbench.Platforms() {
		for _, n := range sizes {
			c, err := newCluster(kind, 1, 1, blockbench.MustWorkload("cpuheavy", nil), nil)
			if err != nil {
				return nil, err
			}
			client := c.ClientOn(0, 0)
			start := time.Now()
			_, qerr := client.Query("cpuheavy", "sort", types.U64Bytes(uint64(n)))
			elapsed := time.Since(start)

			mem := peakMemOf(c, kind, n)
			c.Stop()
			if qerr != nil {
				res.addf("%-12s n=%9d -> X (%v)", kind, n, shortErr(qerr))
				continue
			}
			res.addf("%-12s n=%9d -> %8.3fs, peak mem %7.1f MB", kind, n, elapsed.Seconds(), mem)
		}
	}
	return res, nil
}

// peakMemOf reports the simulated resident footprint in MB: the EVM
// engines track it through their memory model; the native engine's
// footprint is the array itself plus runtime overhead (paper-fit
// ~10 B/element over a small base).
func peakMemOf(c *blockbench.Cluster, kind blockbench.Platform, n int) float64 {
	if kind == blockbench.Hyperledger {
		return (3.5e6 + 10*float64(n)) / 1e6
	}
	if e, ok := c.Inner().Engine(0).(*exec.EVMEngine); ok {
		return float64(e.PeakMem()) / 1e6
	}
	return 0
}

func shortErr(err error) string {
	msg := err.Error()
	if len(msg) > 60 {
		msg = msg[:60]
	}
	return msg
}

// Fig12IOHeavy reproduces Fig 12: bulk random write then read
// throughput (in state operations per second) and the resulting disk
// usage, at growing tuple counts (paper sizes divided by 16). Ethereum
// and Parity pay Patricia-Merkle write amplification — an order of
// magnitude more storage than Hyperledger's flat bucket layout — and
// Parity's pinned-in-memory state runs out at the two largest sizes.
func Fig12IOHeavy(s Scale) (*Result, error) {
	res := &Result{ID: "fig12", Title: "IOHeavy: write/read throughput and disk usage (sizes = paper/16)"}
	sizes := []int{50_000, 100_000, 200_000, 400_000, 800_000}
	perTx := 10_000
	if s.Shrink > 1 {
		sizes = []int{80_000 / s.Shrink, 200_000 / s.Shrink}
		perTx = 20_000 / s.Shrink
	}
	for _, kind := range blockbench.Platforms() {
		for _, tuples := range sizes {
			row, err := ioHeavyRun(kind, tuples, perTx)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func ioHeavyRun(kind blockbench.Platform, tuples, perTx int) (string, error) {
	dir, err := os.MkdirTemp("", "blockbench-io")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	c, err := newCluster(kind, 1, 1, blockbench.MustWorkload("ioheavy", nil), func(cfg *blockbench.ClusterConfig) {
		switch kind {
		case blockbench.Parity:
			cfg.Options["memcap"] = strconv.Itoa(192 << 20)
			return // state stays pinned in memory: no data dir
		case blockbench.Ethereum:
			// IOHeavy transactions exceed normal limits; only Ethereum
			// bounds blocks by gas.
			cfg.Options["gas"] = strconv.Itoa(1 << 50)
		}
		cfg.DataDir = dir
	})
	if err != nil {
		return "", err
	}
	defer c.Stop()
	c.Start()
	client := c.ClientOn(0, 0)

	phase := func(method string) (float64, error) {
		start := time.Now()
		for seed := 0; seed < tuples; seed += perTx {
			id, err := client.Send(blockbench.Op{Contract: "ioheavy", Method: method,
				Args:     [][]byte{types.U64Bytes(uint64(perTx)), types.U64Bytes(uint64(seed))},
				GasLimit: 1 << 50})
			if err != nil {
				return 0, err
			}
			deadline := time.Now().Add(20 * time.Second)
			for {
				ok, err := client.Committed(id)
				if err != nil {
					return 0, err
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					return 0, errors.New("out of memory / commit stalled")
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		return float64(tuples) / time.Since(start).Seconds(), nil
	}

	wTput, werr := phase("write")
	if werr != nil {
		return fmt.Sprintf("%-12s tuples=%7d -> X (%s)", kind, tuples, shortErr(werr)), nil
	}
	rTput, rerr := phase("read")
	if rerr != nil {
		return fmt.Sprintf("%-12s tuples=%7d -> write %8.0f op/s, read X", kind, tuples, wTput), nil
	}
	st := c.Inner().Store(0).Stats()
	disk := st.DiskBytes
	if kind == blockbench.Parity {
		disk = st.MemBytes // Parity keeps state resident in memory
	}
	return fmt.Sprintf("%-12s tuples=%7d -> write %8.0f op/s, read %8.0f op/s, storage %7.1f MB",
		kind, tuples, wTput, rTput, float64(disk)/1e6), nil
}

// Fig13Analytics reproduces Fig 13a/b: analytics query latency versus
// blocks scanned on a preloaded historical chain. Q1 (total transaction
// value) costs one RPC per block everywhere; Q2 (largest value touching
// an account) costs one RPC per block on Ethereum/Parity but a single
// chaincode query on Hyperledger thanks to VersionKVStore — the ~10x
// gap at large scans.
func Fig13Analytics(s Scale) (*Result, error) {
	res := &Result{ID: "fig13", Title: "analytics Q1/Q2 latency vs blocks scanned"}
	blocks := 10_000 / s.Shrink
	scans := []uint64{1, 10, 100, 1000, 10_000}
	for _, kind := range blockbench.Platforms() {
		a := &blockbench.Analytics{Blocks: blocks, TxPerBlock: 3, Accounts: 32}
		c, err := newCluster(kind, 2, 32, a, nil)
		if err != nil {
			return nil, err
		}
		if err := a.Init(c, rand.New(rand.NewSource(3))); err != nil {
			c.Stop()
			return nil, err
		}
		client := c.ClientOn(0, 0)
		base := c.Height() - uint64(blocks) + 1
		for _, scan := range scans {
			if scan > uint64(blocks) {
				continue
			}
			_, d1, err := a.Q1(client, base, base+scan)
			if err != nil {
				c.Stop()
				return nil, err
			}
			_, d2, err := a.Q2(client, a.Account(0), base, base+scan)
			if err != nil {
				c.Stop()
				return nil, err
			}
			res.addf("%-12s scan=%6d blocks -> Q1 %8.3fs, Q2 %8.3fs",
				kind, scan, d1.Seconds(), d2.Seconds())
		}
		c.Stop()
	}
	return res, nil
}
