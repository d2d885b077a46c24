// Package gen produces the deterministic synthetic inputs that substitute
// for the paper's proprietary or impractically large data sets (Table 2):
// GRiN images for hist, the rma10 sparse matrix for spmv, the Wikipedia
// 2007 link graph for pgrank, the cage15 DNA graph for bfs, and PARSEC
// fluidanimate's simlarge particle grid. Each generator matches the
// qualitative structure the corresponding benchmark depends on (value
// skew, nonzero overlap, degree distribution, frontier shape), which is
// what determines coherence behaviour.
package gen

// RNG is a small deterministic splitmix64 generator, independent of
// math/rand so that inputs are stable across Go releases.
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Next returns the next 64-bit pseudo-random value.
func (r *RNG) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// Image returns n 8-bit pixel values. Real photographs (the GRiN set) have
// strongly non-uniform luminance histograms; skew > 0 mixes a uniform
// component with clustered "sky/shadow" bands to reproduce that, while
// skew == 0 is uniform.
func Image(n int, skew float64, seed uint64) []uint8 {
	r := NewRNG(seed)
	px := make([]uint8, n)
	// Pick a few dominant bands, as photographs have.
	bands := []uint8{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))}
	for i := range px {
		if r.Float64() < skew {
			b := bands[r.Intn(len(bands))]
			px[i] = b + uint8(r.Intn(17)) - 8
		} else {
			px[i] = uint8(r.Intn(256))
		}
	}
	return px
}

// CSC is a sparse matrix in compressed sparse column format, the layout
// that forces spmv's scattered adds to the output vector (Sec 5.1).
type CSC struct {
	Rows, Cols int
	ColPtr     []int32   // len Cols+1
	RowIdx     []int32   // len NNZ
	Val        []float64 // len NNZ
}

// NNZ returns the number of stored nonzeros.
func (m *CSC) NNZ() int { return len(m.RowIdx) }

// SparseMatrix builds an rma10-like square CSC matrix: a banded diagonal
// structure (3-D CFD mesh locality) plus a fraction of uniformly scattered
// entries, with the given average nonzeros per column.
func SparseMatrix(n, nnzPerCol int, seed uint64) *CSC {
	r := NewRNG(seed)
	m := &CSC{Rows: n, Cols: n}
	m.ColPtr = make([]int32, n+1)
	band := n / 64
	if band < 8 {
		band = 8
	}
	seen := make(map[int32]bool, nnzPerCol*2)
	for j := 0; j < n; j++ {
		m.ColPtr[j] = int32(len(m.RowIdx))
		k := nnzPerCol/2 + r.Intn(nnzPerCol) // mild column-degree variance
		for key := range seen {
			delete(seen, key)
		}
		for e := 0; e < k; e++ {
			var i int
			if r.Float64() < 0.85 {
				// Banded: near the diagonal.
				i = j + r.Intn(2*band+1) - band
				if i < 0 {
					i = -i
				}
				if i >= n {
					i = 2*(n-1) - i
				}
			} else {
				i = r.Intn(n)
			}
			ri := int32(i)
			if seen[ri] {
				continue
			}
			seen[ri] = true
			m.RowIdx = append(m.RowIdx, ri)
			m.Val = append(m.Val, 1+r.Float64())
		}
	}
	m.ColPtr[n] = int32(len(m.RowIdx))
	return m
}

// Graph is a directed graph in compressed sparse row (adjacency) form.
type Graph struct {
	N      int
	Off    []int32 // len N+1
	Dst    []int32 // len M
	OutDeg []int32 // len N
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.Dst) }

// RMAT builds a power-law directed graph with n = 2^scale vertices and
// approximately edgeFactor*n edges using the recursive-matrix method, the
// standard stand-in for web/wiki link graphs (pgrank) and large sparse
// irregular graphs (bfs).
func RMAT(scale, edgeFactor int, seed uint64) *Graph {
	r := NewRNG(seed)
	n := 1 << uint(scale)
	mEdges := edgeFactor * n
	const a, b, c = 0.57, 0.19, 0.19 // Graph500 parameters
	type edge struct{ s, d int32 }
	edges := make([]edge, 0, mEdges)
	for e := 0; e < mEdges; e++ {
		var src, dst int
		for bitPos := scale - 1; bitPos >= 0; bitPos-- {
			p := r.Float64()
			switch {
			case p < a:
				// top-left: neither bit set
			case p < a+b:
				dst |= 1 << uint(bitPos)
			case p < a+b+c:
				src |= 1 << uint(bitPos)
			default:
				src |= 1 << uint(bitPos)
				dst |= 1 << uint(bitPos)
			}
		}
		if src == dst {
			continue
		}
		edges = append(edges, edge{int32(src), int32(dst)})
	}
	// Bucket into CSR.
	g := &Graph{N: n}
	g.OutDeg = make([]int32, n)
	for _, e := range edges {
		g.OutDeg[e.s]++
	}
	g.Off = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.Off[i+1] = g.Off[i] + g.OutDeg[i]
	}
	g.Dst = make([]int32, len(edges))
	fill := make([]int32, n)
	for _, e := range edges {
		g.Dst[g.Off[e.s]+fill[e.s]] = e.d
		fill[e.s]++
	}
	return g
}

// MaxDegree returns the largest out-degree (power-law check).
func (g *Graph) MaxDegree() int32 {
	var mx int32
	for _, d := range g.OutDeg {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// FluidGrid describes a 2-D cell grid for the fluidanimate-like stencil:
// each cell holds a particle density; threads own horizontal slabs and
// update their slab plus the boundary rows shared with neighbours.
type FluidGrid struct {
	W, H    int
	Density []float32 // len W*H, initial state
}

// Fluid builds a w×h grid with smoothly varying initial densities.
func Fluid(w, h int, seed uint64) *FluidGrid {
	r := NewRNG(seed)
	g := &FluidGrid{W: w, H: h, Density: make([]float32, w*h)}
	// Sum of a few random low-frequency bumps: smooth, like a fluid field.
	type bump struct{ cx, cy, amp, inv float64 }
	bumps := make([]bump, 6)
	for i := range bumps {
		bumps[i] = bump{
			cx:  r.Float64() * float64(w),
			cy:  r.Float64() * float64(h),
			amp: 0.5 + r.Float64(),
			inv: 1 / (float64(w/8+1) * (0.5 + r.Float64())),
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var v float64
			for _, b := range bumps {
				dx := (float64(x) - b.cx) * b.inv
				dy := (float64(y) - b.cy) * b.inv
				d2 := dx*dx + dy*dy
				v += b.amp / (1 + d2)
			}
			g.Density[y*w+x] = float32(v)
		}
	}
	return g
}
