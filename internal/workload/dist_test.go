package workload

import (
	"math/rand"
	"testing"
)

func TestUniformInRange(t *testing.T) {
	u := Uniform{N: 10}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if k := u.Next(rng); k < 0 || k >= 10 {
			t.Fatalf("out of range: %d", k)
		}
	}
}

func TestZipfianSkewsLow(t *testing.T) {
	z := NewZipfian(1000)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 1000)
	const samples = 100_000
	for i := 0; i < samples; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("out of range: %d", k)
		}
		counts[k]++
	}
	// Item 0 must be far hotter than a uniform share (100 expected).
	if counts[0] < 1000 {
		t.Fatalf("item 0 only %d hits; zipfian not skewed", counts[0])
	}
	// The head (first 10%) should dominate the tail's last 10%.
	head, tail := 0, 0
	for i := 0; i < 100; i++ {
		head += counts[i]
		tail += counts[900+i]
	}
	if head < 10*tail {
		t.Fatalf("head/tail = %d/%d; insufficient skew", head, tail)
	}
}

func TestZipfianSmallN(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		z := NewZipfian(n)
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 100; i++ {
			if k := z.Next(rng); k < 0 || k >= n {
				t.Fatalf("n=%d: out of range %d", n, k)
			}
		}
	}
}
