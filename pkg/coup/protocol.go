package coup

import "repro/internal/sim"

// Protocol is one coherence protocol selectable by name: one of the five
// the simulator implements (MSI, MESI, MUSI, MEUSI, RMO). String is the
// lookup key, Description a one-line summary naming the paper
// figure/section it comes from, HasU whether it has COUP's update-only
// (U) state (the private-cache fast path of Fig 4/Fig 6), and Remote
// whether commutative updates ship to the line's home L4 bank (the Fig 1b
// remote-memory-operation scheme).
type Protocol = sim.Protocol

// Protocols returns every protocol, sorted by name.
func Protocols() []Protocol { return sim.ProtocolIDs() }

// ProtocolNames returns the sorted names of every protocol.
func ProtocolNames() []string {
	ids := sim.ProtocolIDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = id.String()
	}
	return names
}
