package workloads

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/sim"
)

// PgRank is the PageRank benchmark in the shared-memory-optimized style of
// Satish et al. (Table 2: Wikipedia graph, 64-bit integer add). Ranks are
// fixed-point int64 values (scaled by 2^20) so results are exact and
// order-independent — this matches the paper's use of integer adds for
// pgrank. Each iteration scatters rank/outdeg contributions over the
// irregular graph, a long update-only phase on the next-rank array
// (Sec 4.1, "ghost cells are harder to apply to irregular data").
type PgRank struct {
	Scale      int // graph has 2^Scale vertices
	EdgeFactor int
	Iters      int
	Seed       uint64

	g *gen.Graph

	offAddr  uint64 // int32 per vertex + 1
	dstAddr  uint64 // int32 per edge
	degAddr  uint64 // int32 per vertex
	curAddr  uint64 // int64 fixed-point rank
	nextAddr uint64 // int64 fixed-point accumulator (scatter target)
}

const pgFixedOne = int64(1) << 20
const pgDampNum, pgDampDen = 85, 100 // damping factor 0.85

// NewPgRank builds a PageRank instance on an R-MAT graph.
func NewPgRank(scale, edgeFactor, iters int, seed uint64) *PgRank {
	return &PgRank{Scale: scale, EdgeFactor: edgeFactor, Iters: iters, Seed: seed}
}

// Name implements Workload.
func (p *PgRank) Name() string { return "pgrank" }

// Setup implements Workload.
func (p *PgRank) Setup(m *sim.Machine) {
	p.g = gen.RMAT(p.Scale, p.EdgeFactor, p.Seed)
	n := p.g.N

	p.offAddr = m.Alloc(uint64(n+1)*4, 64)
	for i, v := range p.g.Off {
		m.WriteWord32(p.offAddr+uint64(i)*4, uint32(v))
	}
	p.dstAddr = m.Alloc(uint64(p.g.M())*4+8, 64)
	for i, v := range p.g.Dst {
		m.WriteWord32(p.dstAddr+uint64(i)*4, uint32(v))
	}
	p.degAddr = m.Alloc(uint64(n)*4, 64)
	for i, v := range p.g.OutDeg {
		m.WriteWord32(p.degAddr+uint64(i)*4, uint32(v))
	}
	// The graph is input no kernel writes, so its loads post.
	m.Freeze(p.offAddr, uint64(n+1)*4)
	m.Freeze(p.dstAddr, uint64(p.g.M())*4+8)
	m.Freeze(p.degAddr, uint64(n)*4)
	p.curAddr = m.Alloc(uint64(n)*8, 64)
	p.nextAddr = m.Alloc(uint64(n)*8, 64)
	for i := 0; i < n; i++ {
		m.WriteWord64(p.curAddr+uint64(i)*8, uint64(pgFixedOne))
	}
}

// Kernel implements Workload.
func (p *PgRank) Kernel(c *sim.Ctx) {
	n := p.g.N
	lo, hi := chunk(n, c.Tid(), c.NThreads())
	for it := 0; it < p.Iters; it++ {
		// Scatter phase: push contributions along out-edges.
		for u := lo; u < hi; u++ {
			deg := int32(c.Load32(p.degAddr + uint64(u)*4))
			if deg == 0 {
				continue
			}
			rank := int64(c.Load64(p.curAddr + uint64(u)*8))
			contrib := rank / int64(deg)
			start := c.Load32(p.offAddr + uint64(u)*4)
			end := c.Load32(p.offAddr + uint64(u+1)*4)
			c.Work(6)
			for e := start; e < end; e++ {
				v := c.Load32(p.dstAddr + uint64(e)*4)
				c.Work(2)
				c.CommAdd64(p.nextAddr+uint64(v)*8, uint64(contrib))
			}
		}
		c.Barrier()
		// Apply phase: fold damping, swap in the new ranks, clear next.
		for u := lo; u < hi; u++ {
			acc := int64(c.Load64(p.nextAddr + uint64(u)*8))
			newRank := (pgFixedOne*(100-pgDampNum) + pgDampNum*acc) / pgDampDen
			c.Store64(p.curAddr+uint64(u)*8, uint64(newRank))
			c.Store64(p.nextAddr+uint64(u)*8, 0)
			c.Work(6)
		}
		c.Barrier()
	}
}

// Validate implements Workload: fixed-point integer PageRank is exact.
func (p *PgRank) Validate(m *sim.Machine) error {
	n := p.g.N
	cur := make([]int64, n)
	next := make([]int64, n)
	for i := range cur {
		cur[i] = pgFixedOne
	}
	for it := 0; it < p.Iters; it++ {
		for u := 0; u < n; u++ {
			if p.g.OutDeg[u] == 0 {
				continue
			}
			contrib := cur[u] / int64(p.g.OutDeg[u])
			for e := p.g.Off[u]; e < p.g.Off[u+1]; e++ {
				next[p.g.Dst[e]] += contrib
			}
		}
		for u := 0; u < n; u++ {
			cur[u] = (pgFixedOne*(100-pgDampNum) + pgDampNum*next[u]) / pgDampDen
			next[u] = 0
		}
	}
	for u := 0; u < n; u++ {
		if got := int64(m.ReadWord64(p.curAddr + uint64(u)*8)); got != cur[u] {
			return fmt.Errorf("rank[%d]: got %d, want %d", u, got, cur[u])
		}
	}
	return nil
}

func init() {
	mustRegister("pgrank",
		"PageRank on an R-MAT graph with commutative int adds (Table 2; Scale, EdgeFactor, Iters, Seed)",
		func(p Params) (Workload, error) {
			scale, err := p.def(p.Scale, 12)
			if err != nil {
				return nil, err
			}
			ef, err := p.def(p.EdgeFactor, 12)
			if err != nil {
				return nil, err
			}
			iters, err := p.def(p.Iters, 2)
			if err != nil {
				return nil, err
			}
			return NewPgRank(scale, ef, iters, p.seed(9)), nil
		})
}
