package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"blockbench"
	"blockbench/internal/hstore"
)

// Fig14HStore reproduces Fig 14 (Appendix B): the three blockchains
// versus the H-Store-style partitioned in-memory database on YCSB and
// Smallbank. H-Store pays nothing for consensus; its only coordination
// cost is 2PC on multi-partition transactions, which is why Smallbank
// drops several-fold relative to YCSB while the blockchains barely move.
func Fig14HStore(s Scale) (*Result, error) {
	res := &Result{ID: "fig14", Title: "blockchains vs H-Store"}

	for _, wname := range []string{"ycsb", "smallbank"} {
		tput, err := runHStore(wname, s.Duration/2)
		if err != nil {
			return nil, err
		}
		res.addf("%-12s %-10s -> %9.0f tx/s", "h-store", wname, tput)
	}
	for _, kind := range blockbench.Platforms() {
		for _, wname := range []string{"ycsb", "smallbank"} {
			w := macroWorkload(wname, s)
			r, err := measure(kind, 8, 8, w, blockbench.RunConfig{
				Threads: 4, Rate: 512, Duration: s.Duration,
			}, nil)
			if err != nil {
				return nil, err
			}
			res.addf("%-12s %-10s -> %9.1f tx/s", kind, wname, r.Throughput)
		}
	}
	return res, nil
}

// runHStore drives the baseline with 8 client goroutines for d and
// returns transactions per second.
func runHStore(workload string, d time.Duration) (float64, error) {
	s := hstore.New(8)
	defer s.Close()

	// Preload.
	const records = 1000
	for i := 0; i < records; i++ {
		k := fmt.Sprintf("user%010d", i)
		if err := s.Exec([]string{k}, func(a hstore.Access) {
			a.Put(k, make([]byte, 100))
		}); err != nil {
			return 0, err
		}
	}
	var (
		wg    sync.WaitGroup
		total sync.Map
	)
	end := time.Now().Add(d)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			var n uint64
			for time.Now().Before(end) {
				if workload == "ycsb" {
					k := fmt.Sprintf("user%010d", rng.Intn(records))
					if rng.Intn(2) == 0 {
						s.Exec([]string{k}, func(a hstore.Access) { a.Get(k) })
					} else {
						s.Exec([]string{k}, func(a hstore.Access) { a.Put(k, make([]byte, 100)) })
					}
				} else {
					// Smallbank sendPayment: two accounts, usually two
					// partitions -> blocking 2PC.
					k1 := fmt.Sprintf("user%010d", rng.Intn(records))
					k2 := fmt.Sprintf("user%010d", rng.Intn(records))
					keys := []string{k1}
					if k2 != k1 {
						keys = append(keys, k2)
					}
					s.Exec(keys, func(a hstore.Access) {
						v1, _ := a.Get(k1)
						a.Put(k1, v1)
						if k2 != k1 {
							v2, _ := a.Get(k2)
							a.Put(k2, v2)
						}
					})
				}
				n++
			}
			total.Store(c, n)
		}(c)
	}
	wg.Wait()
	var sum uint64
	total.Range(func(_, v any) bool { sum += v.(uint64); return true })
	return float64(sum) / d.Seconds(), nil
}
