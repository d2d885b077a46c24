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
