package core

// Reference implementations the production enumerator is tested and
// benchmarked against: an independent randomized enumerator (flat Karger
// contraction) and the string identity of a cut.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

// Key returns a string identifying the bipartition: the oracle-friendly
// identity the tests and the reference enumerator dedup by. The production
// paths intern cuts through cutInterner's 64-bit hash table instead and
// never materialise strings.
func (c Cut) Key() string {
	b := make([]byte, 0, len(c.side)*8)
	for _, w := range c.side {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(w>>uint(s)))
		}
	}
	return string(b)
}

// enumerateMinCutsReference is an independent randomized enumerator, kept
// as an oracle for the equivalence corpus. Semantics match
// EnumerateMinCuts; only the size >= 3 strategy differs: 3n²·log n
// independent single-level Karger contractions, each paying an O(m)
// permutation allocation, a fresh union-find, and a string-keyed dedup.
func enumerateMinCutsReference(h *graph.Graph, size int, rng *rand.Rand) ([]Cut, error) {
	if !h.Connected() {
		return nil, fmt.Errorf("core: cut enumeration needs a connected graph")
	}
	switch {
	case size <= 0:
		return nil, fmt.Errorf("core: cut size %d out of range", size)
	case size == 1:
		return cutsFromBridges(h), nil
	case size == 2:
		return cutsFromCutPairs(h)
	default:
		return cutsByFlatContraction(h, size, rng)
	}
}

// cutsByFlatContraction enumerates minimum cuts of the given size by
// repeated single-level Karger contraction. Each minimum cut survives a
// contraction run with probability >= 2/(n(n-1)), so O(n²·log n) runs find
// all of them w.h.p.
func cutsByFlatContraction(h *graph.Graph, size int, rng *rand.Rand) ([]Cut, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: contraction enumeration requires rng")
	}
	lambda := h.EdgeConnectivityUpTo(size + 1)
	if lambda > size {
		return nil, nil // no cuts of this size: already (size+1)-connected
	}
	if lambda < size {
		return nil, fmt.Errorf("core: graph has connectivity %d < requested cut size %d", lambda, size)
	}
	n := h.N()
	trials := 3 * n * n * (bits.Len(uint(n)) + 1)
	if trials < 200 {
		trials = 200
	}
	seen := make(map[string]bool)
	var out []Cut
	edges := h.Edges()
	for trial := 0; trial < trials; trial++ {
		uf := graph.NewUnionFind(n)
		perm := rng.Perm(len(edges))
		remaining := n
		for _, ei := range perm {
			if remaining <= 2 {
				break
			}
			e := edges[ei]
			if uf.Union(e.U, e.V) {
				remaining--
			}
		}
		if remaining != 2 {
			continue
		}
		// Count crossing edges.
		r0 := uf.Find(0)
		crossing := 0
		for _, e := range edges {
			if (uf.Find(e.U) == r0) != (uf.Find(e.V) == r0) {
				crossing++
			}
		}
		if crossing != size {
			continue
		}
		c := newCut(n, func(v int) bool { return uf.Find(v) != r0 })
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// BenchmarkMicro_EnumerateMinCutsReference benches the flat-Karger oracle
// on the smaller instances (it is Θ(n²·log n) trials, so larger sizes are
// impractical), for comparison with BenchmarkMicro_EnumerateMinCuts in the
// root package. CI's bench-smoke step runs only the root package's
// benchmarks, so this never runs in CI.
func BenchmarkMicro_EnumerateMinCutsReference(b *testing.B) {
	cases := []struct{ size, n int }{
		{3, 64},
		{3, 256},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("size=%d/n=%d", tc.size, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Harary(tc.size, tc.n, graph.UnitWeights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cuts, err := enumerateMinCutsReference(g, tc.size, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				if len(cuts) == 0 {
					b.Fatal("no cuts found")
				}
			}
		})
	}
}
