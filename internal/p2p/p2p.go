// Package p2p is a small TCP transport for running the edge blockchain as
// real processes, mirroring the paper's original deployment ("each node
// runs a blockchain system in the container and communicates with others
// using standard socket communication").
//
// The wire protocol is length-prefixed frames over TCP:
//
//	[4-byte big-endian length][1-byte frame type][payload]
//
// Peers form a full mesh (the paper's private-blockchain scale of tens of
// nodes). Connect performs a handshake exchanging listen addresses so both
// sides can identify and deduplicate peers; a Greeter's hello rides along.
package p2p

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Network deadlines. A hung or unreachable peer must not stall the caller:
// Connect bounds the TCP dial, and every frame write carries a deadline so
// a peer that stops draining its socket cannot hold writeMu (and thereby
// every later Send to it) forever — the write fails and the connection is
// dropped.
var (
	// DialTimeout bounds Connect's TCP dial.
	DialTimeout = 5 * time.Second
	// WriteTimeout bounds each frame write (hello, Send).
	WriteTimeout = 10 * time.Second
)

// Frame types.
const (
	// FrameHello carries the sender's listen address (handshake) and, if
	// its handler is a Greeter, a zero byte and its hello.
	FrameHello byte = iota + 1
	// 2 is retired (the full-block push). Retired numbers are never
	// reused: surviving types keep their byte values.
	_
	// FrameMeta carries one encoded metadata item.
	FrameMeta
	// 4 and 5 are retired (the whole-chain request and reply).
	_
	_
	// FrameDataRequest carries a 32-byte data ID and one mark byte, 1 on a
	// repair fetch and 0 otherwise. The holder answers the sender.
	FrameDataRequest
	// FrameData carries a 32-byte data ID followed by the content.
	FrameData
	// FrameSyncLocator carries a block locator (height/hash samples) and
	// opens an incremental sync round (DESIGN.md §10).
	FrameSyncLocator
	// FrameSyncHeaders answers a locator: fork point, responder tip and a
	// bounded header range of the missing suffix.
	FrameSyncHeaders
	// FrameSyncGetBatch requests one bounded block range [from, to].
	FrameSyncGetBatch
	// FrameSyncBatch carries the requested blocks of one batch.
	FrameSyncBatch
	// 12 is retired (the heartbeat broadcast), and so are 13 and 14 (the
	// repair plane's own request and answer: a repair fetch is a marked
	// FrameDataRequest).
	_
	_
	_
	// FrameBlockAnnounce advertises one block by height + header hash
	// without shipping the body (inv-style gossip, DESIGN.md §13).
	FrameBlockAnnounce
	// FrameGetBlock asks the announcer for the full block behind a
	// 32-byte header hash.
	FrameGetBlock
	// FrameGetSnapshot asks a peer for its latest finalized state snapshot
	// (snapshot bootstrap, DESIGN.md §14). Empty payload.
	FrameGetSnapshot
	// FrameSnapshot carries one chunk of a serialized state snapshot:
	// height, total length, content hash, chunk index/count, then the chunk
	// bytes. A chunk count of zero means "no snapshot available".
	FrameSnapshot
	// FrameMetaAnnounce advertises a batch of metadata items by 8-byte
	// short ID without shipping the bodies (inv-style metadata gossip,
	// DESIGN.md §15.1).
	FrameMetaAnnounce
	// FrameGetMeta asks the announcer (or a compact block's sender) for the
	// full metadata items behind a batch of 8-byte short IDs; each is
	// answered with one FrameMeta.
	FrameGetMeta
	// FrameRepairProbe is the sampled liveness probe (DESIGN.md §15), sent
	// to a bounded deterministic peer sample each repair tick. Empty
	// payload: the link's hello names the sender.
	FrameRepairProbe
	// FrameRepairProbeAck answers a probe with a bounded digest of
	// third-party liveness evidence (roster index, evidence age) so
	// aliveness spreads epidemically.
	FrameRepairProbeAck
	// FrameCompactBlock is a pushed or fetched block with each item
	// replaced by its short ID and assigned storing nodes; the receiver
	// rebuilds the body from items it already holds (DESIGN.md §13.1).
	FrameCompactBlock

	// frameTypeEnd is one past the highest frame type. New types go right
	// above it, each with a name in frameNames (metrics.go).
	frameTypeEnd
)

// MaxFrameSize bounds a single frame (64 MiB) against corrupt length
// prefixes.
const MaxFrameSize = 64 << 20

// MaxHelloLen bounds each part of a hello frame: the listen address and a
// Greeter's hello. The address becomes the peer-map key verbatim, so an
// unbounded one would let a malicious dialer register arbitrarily large
// keys; an empty one would register as "". Real host:port strings are far
// below this.
const MaxHelloLen = 256

// Handler receives inbound frames. from is the peer's listen address.
// Calls are serialized: the node holds its handler lock while dispatching,
// so implementations need no extra synchronization against each other.
type Handler interface {
	HandleFrame(from string, frameType byte, payload []byte)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from string, frameType byte, payload []byte)

// HandleFrame implements Handler.
func (f HandlerFunc) HandleFrame(from string, frameType byte, payload []byte) {
	f(from, frameType, payload)
}

// Node is one transport endpoint.
type Node struct {
	ln      net.Listener
	handler Handler
	hello   []byte                  // our hello frame's payload: listen address (‖ 0 ‖ Greeter's hello)
	metrics atomic.Pointer[Metrics] // never nil; swap via SetMetrics

	mu       sync.Mutex
	peers    map[string]*peer // keyed by remote listen address
	sorted   []string         // Peers' snapshot of the keys; nil after a change, built afresh on demand
	closed   bool
	dispatch sync.Mutex // serializes handler calls

	wg sync.WaitGroup
}

type peer struct {
	addr     string
	conn     net.Conn
	outbound bool // this node dialled it
	writeMu  sync.Mutex
}

// Listen starts a node on addr (use "127.0.0.1:0" for an ephemeral port).
func Listen(addr string, h Handler) (*Node, error) {
	if h == nil {
		return nil, errors.New("p2p: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen: %w", err)
	}
	n := &Node{ln: ln, handler: h, peers: make(map[string]*peer)}
	n.hello = []byte(n.Addr())
	if g, ok := h.(Greeter); ok {
		if hello := g.Hello(); len(hello) > 0 {
			n.hello = append(append(n.hello, 0), hello...)
		}
	}
	n.metrics.Store(&Metrics{}) // inert until SetMetrics
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// SetMetrics installs the node's telemetry sink (see NewMetrics). Safe to
// call while traffic flows; nil restores the inert default.
func (n *Node) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	n.metrics.Store(m)
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Peers returns the listen addresses of connected peers in sorted order, as
// the shared snapshot Transport describes: callers must not modify it. A
// connection registered or dropped makes the next call build a fresh slice,
// so a snapshot already handed out, which reader goroutines may be reading,
// never changes.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sorted == nil && len(n.peers) > 0 {
		n.sorted = make([]string, 0, len(n.peers))
		for a := range n.peers {
			n.sorted = append(n.sorted, a)
		}
		sort.Strings(n.sorted)
	}
	return n.sorted
}

// Close shuts the node down and waits for all connection goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	err := n.ln.Close()
	for _, p := range n.peers {
		p.conn.Close()
	}
	n.peers, n.sorted = make(map[string]*peer), nil
	n.mu.Unlock()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// Connect dials a peer, performs the hello handshake and registers the
// connection before it returns, so a Send reaches the peer at once.
// Connecting to an already-connected peer is a no-op.
func (n *Node) Connect(addr string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("p2p: node closed")
	}
	if _, ok := n.peers[addr]; ok || addr == n.Addr() {
		n.mu.Unlock()
		return nil
	}
	// The reader goroutine is counted while n.mu still shows the node open,
	// so a concurrent Close waits for it.
	n.wg.Add(1)
	n.mu.Unlock()

	conn, err := n.dial(addr)
	if err != nil {
		n.wg.Done()
		return err
	}
	if !n.register(addr, conn, true) {
		// The peer's own dial to us was registered meanwhile and outranks
		// this one (or the node closed): we are connected through that.
		n.wg.Done()
		conn.Close()
		return nil
	}
	go func() {
		defer n.wg.Done()
		n.readLoop(conn, addr)
	}()
	return nil
}

// dial opens a TCP connection to addr and sends our hello.
func (n *Node) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		n.metrics.Load().DialFailures.Inc()
		return nil, fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	if err := writeFrameDeadline(conn, FrameHello, n.hello); err != nil {
		n.metrics.Load().onSendErr(err)
		conn.Close()
		return nil, fmt.Errorf("p2p: hello: %w", err)
	}
	n.metrics.Load().onSent(FrameHello, len(n.hello))
	return conn, nil
}

// splitHello parses a hello payload: the sender's listen address, then, if
// the sender's handler is a Greeter, a zero byte and its hello. The address
// may not be empty, and neither part may exceed MaxHelloLen.
func splitHello(payload []byte) (addr, hello []byte, ok bool) {
	addr = payload
	if k := bytes.IndexByte(payload, 0); k >= 0 {
		addr, hello = payload[:k], payload[k+1:]
	}
	return addr, hello, len(addr) > 0 && len(addr) <= MaxHelloLen && len(hello) <= MaxHelloLen
}

// greet hands a peer's hello to a Greeter handler, under the dispatch lock
// like a frame.
func (n *Node) greet(peerAddr string, hello []byte) {
	if g, ok := n.handler.(Greeter); ok && len(hello) > 0 {
		n.dispatch.Lock()
		g.HandleHello(peerAddr, hello)
		n.dispatch.Unlock()
	}
}

// register records conn as the connection to addr and reports whether it
// did. outbound says who dialled it: this node (true) or addr (false). A
// second connection dialled by the same end is refused. When both ends
// dialled at once, each sees the same two connections — one it dialled, one
// it accepted — and both keep the one the lower address dialled: the other
// is closed here, and frames already written to it are lost like any frame
// on a dropped connection.
func (n *Node) register(addr string, conn net.Conn, outbound bool) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	if old, ok := n.peers[addr]; ok {
		if old.outbound == outbound || outbound != (n.Addr() < addr) {
			return false
		}
		old.conn.Close() // its reader exits; unregister leaves the new entry alone
	}
	n.peers[addr] = &peer{addr: addr, conn: conn, outbound: outbound}
	n.sorted = nil
	return true
}

func (n *Node) unregister(addr string, conn net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[addr]; ok && p.conn == conn {
		delete(n.peers, addr)
		n.sorted = nil
	}
}

// serveConn runs an accepted connection: the first frame must be the
// dialler's hello, whose payload names the peer; then it reads frames.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	// The hello's address becomes the peer-map key — reject empty or
	// oversized ones so a malicious dialer cannot register as "" or flood
	// the map with giant keys.
	ft, payload, err := readFrame(conn)
	addr, hello, ok := splitHello(payload)
	if err != nil || ft != FrameHello || !ok {
		return
	}
	peerAddr := string(addr)
	// Reply with our own hello: the dialer's reader hands it to its Greeter
	// before any frame of ours.
	if err := writeFrameDeadline(conn, FrameHello, n.hello); err != nil {
		n.metrics.Load().onSendErr(err)
		return
	}
	n.metrics.Load().onSent(FrameHello, len(n.hello))
	if !n.register(peerAddr, conn, false) {
		return // duplicate connection or node closed
	}
	n.greet(peerAddr, hello)
	n.readLoop(conn, peerAddr)
}

// readLoop dispatches the frames of a registered connection until it fails
// or is closed, then closes it and forgets the peer.
func (n *Node) readLoop(conn net.Conn, peerAddr string) {
	defer conn.Close()
	defer n.unregister(peerAddr, conn)
	for {
		ft, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		n.metrics.Load().onRecv(ft, len(payload))
		if ft == FrameHello {
			// On a dialled connection the first frame is the acceptor's
			// reply hello. The peer stays keyed by the address we dialled.
			if _, hello, ok := splitHello(payload); ok {
				n.greet(peerAddr, hello)
			}
			continue
		}
		n.dispatch.Lock()
		n.handler.HandleFrame(peerAddr, ft, payload)
		n.dispatch.Unlock()
	}
}

// Send writes one frame to a specific peer.
func (n *Node) Send(peerAddr string, frameType byte, payload []byte) error {
	n.mu.Lock()
	p, ok := n.peers[peerAddr]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("p2p: unknown peer %s", peerAddr)
	}
	p.writeMu.Lock()
	err := writeFrameDeadline(p.conn, frameType, payload)
	p.writeMu.Unlock()
	if err != nil {
		n.metrics.Load().onSendErr(err)
		p.conn.Close()
		return err
	}
	n.metrics.Load().onSent(frameType, len(payload))
	return nil
}

// writeFrameDeadline writes one frame under WriteTimeout and clears the
// deadline afterwards so it cannot leak into unrelated later writes.
func writeFrameDeadline(conn net.Conn, frameType byte, payload []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(WriteTimeout)); err != nil {
		return err
	}
	err := writeFrame(conn, frameType, payload)
	if cerr := conn.SetWriteDeadline(time.Time{}); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func writeFrame(w io.Writer, frameType byte, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return fmt.Errorf("p2p: frame of %d bytes exceeds cap", len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = frameType
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameAllocChunk is the initial (and per-step) allocation granularity of
// readFrame. A peer that lies about the frame length must actually deliver
// the bytes before the reader commits more memory, so a forged 64 MiB
// length prefix followed by a hang costs at most one chunk.
const frameAllocChunk = 64 << 10

func readFrame(r io.Reader) (byte, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return 0, nil, err
	}
	size := int(binary.BigEndian.Uint32(lenb[:]))
	if size == 0 || size > MaxFrameSize {
		return 0, nil, fmt.Errorf("p2p: bad frame size %d", size)
	}
	buf := make([]byte, 0, min(size, frameAllocChunk))
	for len(buf) < size {
		step := min(size-len(buf), frameAllocChunk)
		off := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return 0, nil, err
		}
	}
	return buf[0], buf[1:], nil
}
