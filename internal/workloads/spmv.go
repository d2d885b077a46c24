package workloads

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/sim"
)

// SpMV is sparse matrix-vector multiplication with the matrix in compressed
// sparse column format, the paper's spmv benchmark (Table 2: rma10, 64-bit
// FP add). CSC parallelized over columns makes multiple threads perform
// scattered floating-point additions to overlapping elements of the output
// vector — COUP's commutative float adds versus CAS retry loops on MESI.
type SpMV struct {
	N         int // matrix dimension
	NNZPerCol int
	Seed      uint64

	mat *gen.CSC

	colPtrAddr uint64 // int32 per column + 1
	rowIdxAddr uint64 // int32 per nonzero
	valAddr    uint64 // float64 per nonzero
	xAddr      uint64 // float64 input vector
	yAddr      uint64 // float64 output vector (the scattered-add target)
}

// NewSpMV builds an rma10-like spmv instance.
func NewSpMV(n, nnzPerCol int, seed uint64) *SpMV {
	return &SpMV{N: n, NNZPerCol: nnzPerCol, Seed: seed}
}

// Name implements Workload.
func (s *SpMV) Name() string { return "spmv" }

// Setup implements Workload.
func (s *SpMV) Setup(m *sim.Machine) {
	s.mat = gen.SparseMatrix(s.N, s.NNZPerCol, s.Seed)
	nnz := s.mat.NNZ()

	s.colPtrAddr = m.Alloc(uint64(s.N+1)*4, 64)
	for j, v := range s.mat.ColPtr {
		m.WriteWord32(s.colPtrAddr+uint64(j)*4, uint32(v))
	}
	s.rowIdxAddr = m.Alloc(uint64(nnz)*4, 64)
	for k, v := range s.mat.RowIdx {
		m.WriteWord32(s.rowIdxAddr+uint64(k)*4, uint32(v))
	}
	s.valAddr = m.Alloc(uint64(nnz)*8, 64)
	for k, v := range s.mat.Val {
		m.WriteWord64(s.valAddr+uint64(k)*8, math.Float64bits(v))
	}
	s.xAddr = m.Alloc(uint64(s.N)*8, 64)
	r := gen.NewRNG(s.Seed + 1)
	for j := 0; j < s.N; j++ {
		m.WriteWord64(s.xAddr+uint64(j)*8, math.Float64bits(1+r.Float64()))
	}
	// The matrix and x are inputs no kernel writes, so their loads post.
	m.Freeze(s.colPtrAddr, uint64(s.N+1)*4)
	m.Freeze(s.rowIdxAddr, uint64(nnz)*4)
	m.Freeze(s.valAddr, uint64(nnz)*8)
	m.Freeze(s.xAddr, uint64(s.N)*8)
	s.yAddr = m.Alloc(uint64(s.N)*8, 64)
}

// Kernel implements Workload.
func (s *SpMV) Kernel(c *sim.Ctx) {
	lo, hi := chunk(s.N, c.Tid(), c.NThreads())
	for j := lo; j < hi; j++ {
		start := c.Load32(s.colPtrAddr + uint64(j)*4)
		end := c.Load32(s.colPtrAddr + uint64(j+1)*4)
		xj := c.LoadF64(s.xAddr + uint64(j)*8)
		c.Work(4)
		for k := start; k < end; k++ {
			i := c.Load32(s.rowIdxAddr + uint64(k)*4)
			v := c.LoadF64(s.valAddr + uint64(k)*8)
			c.Work(3) // index arithmetic + FP multiply
			c.CommAddF64(s.yAddr+uint64(i)*8, v*xj)
		}
	}
}

// Validate implements Workload. Floating-point adds reorder across
// protocols, so compare with a relative tolerance (the paper makes the same
// reproducibility caveat for FP reductions, Sec 4.1).
func (s *SpMV) Validate(m *sim.Machine) error {
	x := make([]float64, s.N)
	for j := 0; j < s.N; j++ {
		x[j] = math.Float64frombits(m.ReadWord64(s.xAddr + uint64(j)*8))
	}
	ref := make([]float64, s.N)
	for j := 0; j < s.N; j++ {
		for k := s.mat.ColPtr[j]; k < s.mat.ColPtr[j+1]; k++ {
			ref[s.mat.RowIdx[k]] += s.mat.Val[k] * x[j]
		}
	}
	for i := 0; i < s.N; i++ {
		got := math.Float64frombits(m.ReadWord64(s.yAddr + uint64(i)*8))
		if !approxEq(got, ref[i], 1e-9) {
			return fmt.Errorf("y[%d]: got %g, want %g", i, got, ref[i])
		}
	}
	return nil
}

func approxEq(a, b, rel float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return d <= rel*scale
}

func init() {
	mustRegister("spmv",
		"sparse matrix-vector product with commutative FP adds (Table 2; Size=matrix dim, NNZPerCol, Seed)",
		func(p Params) (Workload, error) {
			n, err := p.def(p.Size, 6250)
			if err != nil {
				return nil, err
			}
			nnz, err := p.def(p.NNZPerCol, 24)
			if err != nil {
				return nil, err
			}
			return NewSpMV(n, nnz, p.seed(5)), nil
		})
}
