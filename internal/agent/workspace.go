package agent

import (
	"sync"

	"antientropy/internal/overlay"
	"antientropy/internal/wire"
)

// workspace is everything an exchange computes in and nothing a node has
// to remember: the decoder and its storage, the outgoing message and the
// lists that back it, the packed view handed to the delta codec, the
// codec's and the view's merge buffers. Each is written, encoded or
// consumed within one hold of a node's lock, so it belongs to the hold,
// not to the node: lock takes one from the pool, unlock returns it. The
// goroutine that runs every node of the process — and each reader of a
// handler-mode transport — therefore works in one workspace that stays in
// cache instead of walking through one cold set of buffers per node, and
// an inline request → reply → apply chain uses the same one three times.
//
// What a hold may keep of it past unlock: strings (addresses are the
// book's, or copies) and the encoded bytes, which encode puts in a buffer
// of its own. Nothing else — the next hold, of any node on any goroutine,
// overwrites the rest.
type workspace struct {
	// dec decodes the inbound datagram into storage it reuses; out is the
	// outgoing message being built, desc and entries back its lists, absorb
	// backs the entries handed to view.Absorb.
	dec     wire.Decoder
	out     wire.Messages
	desc    []wire.Descriptor
	entries []wire.MapEntry
	absorb  []overlay.Entry
	// packed is the view plus the fresh self-descriptor, as the gossip
	// encode path hands it to the peer's codec; view is what that codec
	// computes in, merge what the node's view merges in.
	packed []uint64
	view   wire.ViewScratch
	merge  []uint64
}

// workspaces recycles workspaces between holds. A collection empties the
// pool; the next holds grow new ones to size within an exchange.
var workspaces = sync.Pool{New: func() any {
	ws := new(workspace)
	ws.dec.Lookup = book.Canonical
	return ws
}}

// scribble, when set, is run on every workspace a hold returns. Tests set
// it to overwrite the workspace, so that anything that outlives a hold
// and should not have shows.
var scribble func(*workspace)

// lock takes the node's lock together with a workspace: the form of
// n.mu.Lock() for every path that decodes, builds a message or merges
// into the view. Paths that only read or set protocol state take the
// mutex alone, and n.ws is nil for them: reaching for scratch without a
// hold is a nil dereference, not a race.
func (n *Node) lock() {
	n.mu.Lock()
	n.ws = workspaces.Get().(*workspace)
	n.view.Lend(&n.ws.merge)
}

// unlock ends a hold begun by lock.
func (n *Node) unlock() {
	ws := n.ws
	n.ws = nil
	n.view.Lend(nil)
	n.mu.Unlock()
	if scribble != nil {
		scribble(ws)
	}
	workspaces.Put(ws)
}
