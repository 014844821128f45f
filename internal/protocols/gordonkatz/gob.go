package gordonkatz

import "encoding/gob"

// RegisterGobTypes registers the Gordon–Katz protocols' wire payloads,
// setup outputs, and output type with encoding/gob, for running them
// over the transport package's TCP sessions. Safe to call multiple
// times.
func RegisterGobTypes() {
	// Pointer payloads and setup outputs (*gkOpen, *leakMsg,
	// *gkSetupOut — the machines' payload cells and the ShareGen
	// scratch) need no extra registration: gob flattens indirections,
	// transmitting and decoding them as the value types below, which the
	// receivers accept either way.
	gob.Register(gkSetupOut{})
	gob.Register(gkOpen{})
	gob.Register(leakMsg{})
	gob.Register(mpSetupOut{})
	gob.Register(mpShareMsg{})
	gob.Register(uint64(0))
}
