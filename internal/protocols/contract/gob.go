package contract

import "encoding/gob"

// RegisterGobTypes registers the Π1/Π2 wire payloads and output type
// with encoding/gob, for running the protocols over the transport
// package's TCP sessions. Safe to call multiple times.
func RegisterGobTypes() {
	// Pointer payloads (*commitMsg, *openMsg — the machines' payload
	// cells) need no extra registration: gob flattens indirections,
	// transmitting and decoding them as the value types below, which the
	// receiving machines accept either way.
	gob.Register(commitMsg{})
	gob.Register(openMsg{})
	gob.Register(Pair{})
}
