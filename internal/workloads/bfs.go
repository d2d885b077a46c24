package workloads

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/sim"
)

// BFS is level-synchronous parallel breadth-first search with a visited
// bitmap (Table 2: cage15, 64-bit OR). Following the state-of-the-art
// implementations the paper cites, the frontier structure is PBFS-like
// (per-thread next queues) and a bitmap encodes the visited set to cut
// memory bandwidth: threads test a node's bit with an ordinary load and set
// it with an OR — an atomic-or under MESI, a commutative or under COUP.
// Lines of the bitmap therefore bounce between read-only and update-only
// modes, the finely-interleaved pattern of Sec 4.2.
//
// The test-then-set window means a node can be enqueued by several threads
// in the same level; as in the paper's discussion, the duplicates are
// benign (the node's level is identical) and merely cost repeat work.
type BFS struct {
	Scale      int
	EdgeFactor int
	Seed       uint64

	g    *gen.Graph
	root int32

	offAddr   uint64    // int32 per vertex + 1
	dstAddr   uint64    // int32 per edge
	visitAddr uint64    // visited bitmap, one bit per vertex
	distAddr  uint64    // int32 per vertex, ^0 = unreached
	frontAddr [2]uint64 // per-thread frontier segments (int32 slots)
	countAddr [2]uint64 // per-thread counts, one line each
	segCap    int
	anyAddr   uint64 // per-level "frontier nonempty" flag words
	maxLevels int
	nthreads  int
}

// NewBFS builds a BFS instance over an R-MAT graph.
func NewBFS(scale, edgeFactor int, seed uint64) *BFS {
	return &BFS{Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
}

// Name implements Workload.
func (b *BFS) Name() string { return "bfs" }

// Setup implements Workload.
func (b *BFS) Setup(m *sim.Machine) {
	b.g = gen.RMAT(b.Scale, b.EdgeFactor, b.Seed)
	n := b.g.N
	b.nthreads = m.Config().Cores
	b.maxLevels = 64

	// Root: the highest-degree vertex, so the frontier grows quickly.
	for v := 0; v < n; v++ {
		if b.g.OutDeg[v] > b.g.OutDeg[b.root] {
			b.root = int32(v)
		}
	}

	b.offAddr = m.Alloc(uint64(n+1)*4, 64)
	for i, v := range b.g.Off {
		m.WriteWord32(b.offAddr+uint64(i)*4, uint32(v))
	}
	b.dstAddr = m.Alloc(uint64(b.g.M())*4+8, 64)
	for i, v := range b.g.Dst {
		m.WriteWord32(b.dstAddr+uint64(i)*4, uint32(v))
	}
	// The graph is input no kernel writes, so its loads post.
	m.Freeze(b.offAddr, uint64(n+1)*4)
	m.Freeze(b.dstAddr, uint64(b.g.M())*4+8)
	words := uint64(n+63) / 64
	b.visitAddr = m.Alloc(words*8, 64)
	b.distAddr = m.Alloc(uint64(n)*4, 64)
	for v := 0; v < n; v++ {
		m.WriteWord32(b.distAddr+uint64(v)*4, ^uint32(0))
	}
	b.segCap = n
	for i := 0; i < 2; i++ {
		b.frontAddr[i] = m.Alloc(uint64(b.nthreads)*uint64(b.segCap)*4, 64)
		b.countAddr[i] = m.Alloc(uint64(b.nthreads)*64, 64)
	}
	b.anyAddr = m.Alloc(uint64(b.maxLevels)*8, 64)

	// Seed the root in thread 0's current segment.
	m.WriteWord32(b.frontAddr[0], uint32(b.root))
	m.WriteWord64(b.countAddr[0], 1)
	m.WriteWord64(b.visitAddr+uint64(b.root/64)*8, 1<<uint(b.root%64))
	m.WriteWord32(b.distAddr+uint64(b.root)*4, 0)
}

func (b *BFS) seg(buf int, tid int) uint64 {
	return b.frontAddr[buf] + uint64(tid)*uint64(b.segCap)*4
}

// Kernel implements Workload. Each level, every thread reads all per-thread
// segment counts, takes a balanced slice of the combined frontier (the
// load-balancing PBFS's bag splitting provides), and appends discoveries to
// its own next-level segment.
func (b *BFS) Kernel(c *sim.Ctx) {
	tid := c.Tid()
	nt := c.NThreads()
	prefix := make([]uint64, nt+1)
	cur := 0
	for level := 0; level < b.maxLevels; level++ {
		next := 1 - cur
		outSeg := b.seg(next, tid)

		// Combined frontier size and per-segment prefix offsets.
		for t := 0; t < nt; t++ {
			prefix[t+1] = prefix[t] + c.Load64(b.countAddr[cur]+uint64(t)*64)
		}
		total := prefix[nt]
		lo := total * uint64(tid) / uint64(nt)
		hi := total * uint64(tid+1) / uint64(nt)
		seg := 0
		var outCnt uint64
		for g := lo; g < hi; g++ {
			for prefix[seg+1] <= g {
				seg++
			}
			u := c.Load32(b.seg(cur, seg) + (g-prefix[seg])*4)
			start := c.Load32(b.offAddr + uint64(u)*4)
			end := c.Load32(b.offAddr + uint64(u+1)*4)
			c.Work(4)
			for e := start; e < end; e++ {
				v := c.Load32(b.dstAddr + uint64(e)*4)
				word := b.visitAddr + uint64(v/64)*8
				mask := uint64(1) << uint(v%64)
				c.Work(3)
				if c.Load64(word)&mask != 0 {
					continue // already visited
				}
				c.CommOr64(word, mask)
				c.Store32(b.distAddr+uint64(v)*4, uint32(level+1))
				c.Store32(outSeg+outCnt*4, uint32(v))
				outCnt++
			}
		}
		c.Store64(b.countAddr[next]+uint64(tid)*64, outCnt)
		if outCnt > 0 {
			c.CommOr64(b.anyAddr+uint64(level)*8, 1)
		}
		c.Barrier()
		if c.Load64(b.anyAddr+uint64(level)*8) == 0 {
			return
		}
		// No count reset is needed: every thread unconditionally stores its
		// own slot of the out buffer before the next level reads it.
		cur = next
	}
}

// Validate implements Workload: distances must equal a sequential BFS.
func (b *BFS) Validate(m *sim.Machine) error {
	n := b.g.N
	ref := make([]int32, n)
	for i := range ref {
		ref[i] = -1
	}
	ref[b.root] = 0
	queue := []int32{b.root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := b.g.Off[u]; e < b.g.Off[u+1]; e++ {
			v := b.g.Dst[e]
			if ref[v] < 0 {
				ref[v] = ref[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for v := 0; v < n; v++ {
		got := int32(m.ReadWord32(b.distAddr + uint64(v)*4))
		if got != ref[v] {
			return fmt.Errorf("dist[%d]: got %d, want %d", v, got, ref[v])
		}
	}
	return nil
}

func init() {
	mustRegister("bfs",
		"parallel BFS with a commutative-OR visited bitmap (Sec 4.2; Scale, EdgeFactor, Seed)",
		func(p Params) (Workload, error) {
			scale, err := p.def(p.Scale, 13)
			if err != nil {
				return nil, err
			}
			ef, err := p.def(p.EdgeFactor, 10)
			if err != nil {
				return nil, err
			}
			return NewBFS(scale, ef, p.seed(13)), nil
		})
}
