package coup

import "repro/internal/sim"

// Protocol is one coherence protocol selectable by name: one of the five
// the simulator implements (MSI, MESI, MUSI, MEUSI, RMO).
type Protocol interface {
	// Name is the lookup key, e.g. "MEUSI".
	Name() string
	// Description is a one-line summary naming the paper figure/section
	// the protocol comes from.
	Description() string
	// HasUpdateState reports whether the protocol supports COUP's
	// update-only (U) state — the private-cache fast path of Fig 4/Fig 6.
	HasUpdateState() bool
	// RemoteUpdates reports whether commutative updates are shipped to the
	// line's home L4 bank (the Fig 1b remote-memory-operation scheme).
	RemoteUpdates() bool
}

// simProtocol adapts a simulator protocol id to the Protocol interface.
type simProtocol struct{ id sim.Protocol }

func (p simProtocol) Name() string         { return p.id.String() }
func (p simProtocol) Description() string  { return p.id.Description() }
func (p simProtocol) HasUpdateState() bool { return p.id.HasU() }
func (p simProtocol) RemoteUpdates() bool  { return p.id.Remote() }

// Protocols returns every protocol, sorted by name.
func Protocols() []Protocol {
	ids := sim.ProtocolIDs()
	out := make([]Protocol, len(ids))
	for i, id := range ids {
		out[i] = simProtocol{id: id}
	}
	return out
}

// ProtocolNames returns the sorted names of every protocol.
func ProtocolNames() []string {
	ids := sim.ProtocolIDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = id.String()
	}
	return names
}

// LookupProtocol resolves a protocol by name, case-insensitively. Unknown
// names return an error wrapping ErrUnknownProtocol that lists the
// protocol names.
func LookupProtocol(name string) (Protocol, error) {
	id, ok := sim.ProtocolByName(name)
	if !ok {
		return nil, unknownNameError(ErrUnknownProtocol, name, ProtocolNames())
	}
	return simProtocol{id: id}, nil
}
