package sim

// ChunkSlots is the slot count of a sparse array's chunks.
const ChunkSlots = chunkSlots

// DirFootprint reports, for each directory array of m (every chip's L3,
// then the L4), the slots its chunks hold and the sets it has given a
// block. It is meant for sparse arrays, which every Table-1 directory is.
func DirFootprint(m *Machine) (held, filled []int) {
	var arrs []*array[dirLine]
	for _, ch := range m.hier.chips {
		arrs = append(arrs, ch.arr)
	}
	for _, a := range append(arrs, m.hier.l4.arr) {
		n := 0
		for _, g := range a.groups {
			if g != nil {
				for _, b := range g {
					if b.n > 0 {
						n++
					}
				}
			}
		}
		held = append(held, len(a.chunks)*chunkSlots)
		filled = append(filled, n)
	}
	return held, filled
}

// L2Pages reports how many of its pages each core's L2 has allocated, and
// how many pages an L2 has. It is meant for dense arrays, which every
// Table-1 L2 is.
func L2Pages(m *Machine) (allocated []int, pages int) {
	for _, pc := range m.hier.priv {
		n := 0
		for _, pg := range pc.l2.pages {
			if len(pg.words) > 0 {
				n++
			}
		}
		allocated = append(allocated, n)
	}
	return allocated, len(m.hier.priv[0].l2.pages)
}
