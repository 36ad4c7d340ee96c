package p2p

// Transport is the node-to-node messaging abstraction the live stack runs
// on. The production implementation is the TCP Node in this package; tests
// plug in internal/p2p/memnet's in-memory fault-injecting network so the
// same livenode code can be driven deterministically through partitions,
// loss, reordering and crashes.
//
// Addresses are opaque strings: TCP listen addresses for the real network,
// stable symbolic names ("node00") for the in-memory one. Inbound frames
// are delivered to the Handler the transport was created with; calls are
// serialized per transport, so handlers need no synchronization against
// each other.
type Transport interface {
	// Addr returns this endpoint's address, as peers would dial it.
	Addr() string
	// Connect establishes a (symmetric) link to the peer at addr.
	// Connecting to self or an already-connected peer is a no-op.
	Connect(addr string) error
	// Peers returns the addresses of currently connected peers, sorted
	// ascending and without duplicates. The slice is a snapshot shared with
	// every other caller: callers must not modify it. A connect or
	// disconnect installs a new slice and never edits one already handed
	// out (copy-on-write), so a snapshot stays valid, and unchanged, for as
	// long as a caller keeps it. The relay derives its spanning tree from
	// this order and samples it without copying (DESIGN.md §13).
	Peers() []string
	// Send writes one frame to a specific peer. Frames are immutable after
	// Send: once a payload is handed over, neither its sender nor any
	// receiver may modify it. A transport may hand the receiver the sender's
	// slice itself, shared between the deliveries of a duplicated frame
	// (memnet does), and a receiver may keep views into it. A fan-out is one
	// Send per peer of a Peers snapshot, all with the same payload.
	Send(peerAddr string, frameType byte, payload []byte) error
	// Close shuts the endpoint down; subsequent sends fail.
	Close() error
}

// Greeter is a Handler that introduces its end of every link once, with a
// Hello of at most MaxHelloLen bytes read when the transport is created. The
// transport hands each peer's hello to HandleHello as the link comes up,
// before any frame from that peer, and never to HandleFrame. It rides on
// what opening a link exchanges anyway: no frame of its own, no round trip.
// With any other Handler, or an empty Hello, nothing changes.
type Greeter interface {
	Handler
	Hello() []byte
	HandleHello(from string, hello []byte)
}

// The TCP node is the reference Transport implementation.
var _ Transport = (*Node)(nil)
