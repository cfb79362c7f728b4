package analytics

import "testing"

// BenchmarkIndexQuery times the four ops over a 100 000-block, 3-tx
// chain among 8 accounts (each account touches a quarter of the rows),
// with no RPC in front: the query cost alone.
func BenchmarkIndexQuery(b *testing.B) {
	ix := NewIndexer(nil, Options{})
	load(b, ix, chainSource(100_000, 3))
	for _, bc := range []struct {
		name string
		q    Query
	}{
		{"sum", Query{Op: OpSum}},
		{"sum500", Query{Op: OpSum, From: 50_000, To: 50_500}},
		{"maxdelta", Query{Op: OpMaxDelta, Account: addr(3)}},
		{"maxversion", Query{Op: OpMaxVersion, Account: addr(3)}},
		{"topk", Query{Op: OpTopK, Account: addr(3), K: 5}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Query(bc.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
