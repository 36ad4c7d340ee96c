// Package memnet is an in-memory, fault-injecting implementation of
// p2p.Transport for deterministic network tests. All endpoints attach to
// one Network hub that models each directed link with seeded-RNG faults —
// message loss, latency, duplication and reordering — plus directed and
// symmetric partitions.
//
// Every link is one hop by default (a clique). SetRadio puts the endpoints
// on a multi-hop radio field instead (netsim.Radio): a frame then takes its
// path's hop latency, an unreachable destination loses it, and its bytes
// are billed to both ends.
//
// Delivery is pull-based: Send only enqueues; nothing reaches
// a handler until the test harness calls DeliverNext. Combined with a
// virtual clock (internal/chaos) this makes whole-cluster runs
// single-threaded and exactly reproducible: the same seed yields the same
// event log, byte for byte. Every send, drop, duplication and delivery is
// recorded in that log for postmortems.
package memnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/telemetry"
)

// Params configure the fault model of one directed link.
type Params struct {
	// Drop is the probability a message is silently lost in flight.
	Drop float64
	// Duplicate is the probability a message is delivered twice (the
	// duplicate shares the payload and gets its own independently sampled
	// latency).
	Duplicate float64
	// Reorder is the probability a message may overtake earlier traffic on
	// its link. Links are FIFO otherwise (TCP-like): a sampled delivery
	// time earlier than the link's previous one is clamped forward.
	Reorder float64
	// DelayMin and DelayMax bound the uniformly sampled one-way latency.
	// Zero values mean instant delivery (messages come due immediately).
	DelayMin, DelayMax time.Duration
}

func (p Params) delay(rng *rand.Rand) time.Duration {
	if p.DelayMax <= p.DelayMin {
		return p.DelayMin
	}
	return p.DelayMin + time.Duration(rng.Int63n(int64(p.DelayMax-p.DelayMin)+1))
}

// EventKind labels one entry of the network event log.
type EventKind string

// Event kinds recorded by the network.
const (
	EvSend       EventKind = "send"
	EvDeliver    EventKind = "deliver"
	EvDrop       EventKind = "drop"
	EvDuplicate  EventKind = "dup"
	EvConnect    EventKind = "connect"
	EvDisconnect EventKind = "disconnect"
	EvClose      EventKind = "close"
	EvPartition  EventKind = "partition"
	EvHeal       EventKind = "heal"
)

// Event is one record of the network's postmortem log.
type Event struct {
	// Seq is the global event sequence number (dense, starting at 1).
	Seq uint64
	// At is the time of the event relative to the network's creation.
	At time.Duration
	// Kind is what happened.
	Kind EventKind
	// From and To identify the link, where applicable.
	From, To string
	// Frame is the frame type for message events.
	Frame byte
	// Size is the payload size in bytes for message events.
	Size int
	// Note carries extra context (drop reason, partition layout).
	Note string
}

// String renders the event as one log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%04d %10s %-10s", e.Seq, e.At.Round(time.Millisecond), e.Kind)
	if e.From != "" || e.To != "" {
		fmt.Fprintf(&b, " %s->%s", e.From, e.To)
	}
	if e.Kind == EvSend || e.Kind == EvDeliver || e.Kind == EvDrop || e.Kind == EvDuplicate {
		fmt.Fprintf(&b, " frame=%d %dB", e.Frame, e.Size)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	return b.String()
}

// Metrics are the network's fault counters. Counting happens at the same
// points events are logged and never consults the RNG, so enabling
// metrics cannot perturb the deterministic event log. All fields are
// nil-safe; construct with NewMetrics to register under a registry.
type Metrics struct {
	// Sends counts every enqueue attempt (before fault sampling).
	Sends *telemetry.Counter
	// Delivered counts frames handed to a destination handler.
	Delivered *telemetry.Counter
	// Drops counts random in-flight losses (Params.Drop).
	Drops *telemetry.Counter
	// Dups counts duplicated deliveries scheduled (Params.Duplicate).
	Dups *telemetry.Counter
	// Reorders counts sends whose FIFO clamp was waived (Params.Reorder).
	Reorders *telemetry.Counter
	// PartitionKills counts frames destroyed by cuts: sends into a
	// blocked link, in-flight frames crossing a new cut, and frames whose
	// destination vanished before delivery.
	PartitionKills *telemetry.Counter
}

// NewMetrics registers the fault counters under reg (names "memnet.*").
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Sends:          reg.Counter("memnet.sends"),
		Delivered:      reg.Counter("memnet.delivered"),
		Drops:          reg.Counter("memnet.drops"),
		Dups:           reg.Counter("memnet.dups"),
		Reorders:       reg.Counter("memnet.reorders"),
		PartitionKills: reg.Counter("memnet.partition_kills"),
	}
}

type linkKey struct{ from, to string }

// message is one frame in flight; from and to are endpoint numbers.
type message struct {
	seq      uint64
	from, to int32
	frame    byte
	payload  []byte
	due      time.Time
}

// peerSet is a set of endpoint numbers, one bit each: a link is one bit at
// each of its ends. Every endpoint's set is as long as the network's
// numbering needs (Listen grows them together), so no operation grows one.
type peerSet []uint64

func (s peerSet) has(k int32) bool { return s[k>>6]&(1<<(k&63)) != 0 }
func (s peerSet) add(k int32)      { s[k>>6] |= 1 << (k & 63) }
func (s peerSet) remove(k int32)   { s[k>>6] &^= 1 << (k & 63) }

// words is the length of a peerSet over n endpoint numbers.
func words(n int) int { return (n + 63) / 64 }

// messageQueue is a min-heap of in-flight messages ordered by (due, seq)
// — exactly the delivery order DeliverNext promises. seq is unique, so
// the order is total and every pop is deterministic. The heap turns the
// per-delivery cost from O(queue) to O(log queue), which is what keeps
// large clusters (64+ nodes, whose connect storms put tens of thousands
// of same-instant frames in flight) tractable.
type messageQueue []*message

func (q messageQueue) Len() int { return len(q) }
func (q messageQueue) Less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}
func (q messageQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *messageQueue) Push(x any)   { *q = append(*q, x.(*message)) }
func (q *messageQueue) Pop() any {
	old := *q
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return m
}

// Network is the shared hub all memnet endpoints attach to. It is safe for
// concurrent use, but determinism requires that sends and deliveries be
// driven from a single goroutine (the chaos harness's scheduler).
type Network struct {
	mu        sync.Mutex
	nowFn     func() time.Time
	start     time.Time
	rng       *rand.Rand
	defaults  Params
	metrics   *Metrics // never nil; swap via SetMetrics
	links     map[linkKey]Params
	blocked   map[linkKey]bool
	lastDue   map[linkKey]time.Time
	endpoints map[string]*Endpoint // the endpoint last listened on each address
	// Each address gets a dense number at its first Listen: addrs[k] is
	// number k's address and byNum[k] its latest endpoint. order lists the
	// numbers in address order, the order of every Peers snapshot and of
	// Close's disconnects.
	addrs     []string
	byNum     []*Endpoint
	order     []int32
	radio     *netsim.Radio  // nil: every link one instant hop
	radioIdx  map[string]int // address → radio node
	queue     messageQueue
	msgSeq    uint64
	evSeq     uint64
	recording bool
	digest    uint64
	events    []Event
	// free recycles message structs between deliveries; lastDelivered is
	// the message handed to a handler by the previous DeliverNext, safe to
	// recycle once the next delivery starts.
	free          []*message
	lastDelivered *message
}

// New creates a network whose fault decisions derive from seed. now is the
// time source used for latency bookkeeping and event timestamps; nil means
// the wall clock (the chaos harness passes its virtual clock's Now).
func New(seed int64, now func() time.Time) *Network {
	if now == nil {
		now = time.Now
	}
	return &Network{
		nowFn:     now,
		start:     now(),
		rng:       rand.New(rand.NewSource(seed)),
		metrics:   &Metrics{},
		links:     make(map[linkKey]Params),
		blocked:   make(map[linkKey]bool),
		lastDue:   make(map[linkKey]time.Time),
		endpoints: make(map[string]*Endpoint),
		recording: true,
		digest:    fnvOffset,
	}
}

// SetRecording toggles retention of the event log. The running digest
// (EventDigest) keeps folding every event either way, so determinism
// checks still work with recording off — which is how large clusters
// (256+ nodes, millions of events) avoid unbounded log memory.
func (n *Network) SetRecording(on bool) {
	n.mu.Lock()
	n.recording = on
	n.mu.Unlock()
}

// FNV-1a 64-bit, folded inline so digesting an event allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xFF
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fnvMixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// EventDigest returns the FNV-1a digest of every event logged so far
// (including ones not retained while recording was off). Two runs with
// equal digests and equal event counts saw the same event sequence.
func (n *Network) EventDigest() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.digest
}

// EventCount returns how many events have been logged so far, retained
// or not.
func (n *Network) EventCount() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.evSeq
}

// SetMetrics installs the network's fault counters (see NewMetrics); nil
// restores the inert default.
func (n *Network) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	n.mu.Lock()
	n.metrics = m
	n.mu.Unlock()
}

// SetDefaults sets the fault parameters used by links without an explicit
// override. The zero Params value is a perfect, instant network.
func (n *Network) SetDefaults(p Params) {
	n.mu.Lock()
	n.defaults = p
	n.mu.Unlock()
}

// SetRadio carries every later frame over r: addrs[k] is radio node k, and
// a frame between two of them takes r's hop latency on top of its link's
// sampled delay. nil restores the one-hop clique.
func (n *Network) SetRadio(r *netsim.Radio, addrs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.radio = r
	n.radioIdx = make(map[string]int, len(addrs))
	for k, a := range addrs {
		n.radioIdx[a] = k
	}
}

// SetLink overrides the fault parameters of the directed link from → to.
func (n *Network) SetLink(from, to string, p Params) {
	n.mu.Lock()
	n.links[linkKey{from, to}] = p
	n.mu.Unlock()
}

// SetLinkBoth overrides both directions between a and b.
func (n *Network) SetLinkBoth(a, b string, p Params) {
	n.mu.Lock()
	n.links[linkKey{a, b}] = p
	n.links[linkKey{b, a}] = p
	n.mu.Unlock()
}

// BlockLink cuts the directed link from → to: subsequent and in-flight
// messages on it are dropped until UnblockLink or Heal.
func (n *Network) BlockLink(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{from, to}] = true
	n.logLocked(Event{Kind: EvPartition, From: from, To: to, Note: "directed cut"})
	n.dropCrossingLocked("cut")
}

// UnblockLink restores the directed link from → to.
func (n *Network) UnblockLink(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey{from, to})
	n.logLocked(Event{Kind: EvHeal, From: from, To: to, Note: "directed heal"})
}

// Partition splits the network into the given groups: every link between
// two different groups is cut in both directions, and in-flight messages
// crossing the cut are dropped. Addresses not mentioned in any group keep
// all their links. Partition replaces any previous partition.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]bool)
	for i, gi := range groups {
		for j, gj := range groups {
			if i == j {
				continue
			}
			for _, a := range gi {
				for _, b := range gj {
					n.blocked[linkKey{a, b}] = true
				}
			}
		}
	}
	layout := make([]string, len(groups))
	for i, g := range groups {
		layout[i] = "{" + strings.Join(g, ",") + "}"
	}
	n.logLocked(Event{Kind: EvPartition, Note: strings.Join(layout, " | ")})
	n.dropCrossingLocked("cut")
}

// Heal removes every cut (directed and partition) at once.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]bool)
	n.logLocked(Event{Kind: EvHeal})
}

// dropCrossingLocked removes queued messages whose link is now blocked.
func (n *Network) dropCrossingLocked(reason string) {
	var dropped []*message
	kept := n.queue[:0]
	for _, m := range n.queue {
		if n.blocked[linkKey{n.addrs[m.from], n.addrs[m.to]}] {
			dropped = append(dropped, m)
			continue
		}
		kept = append(kept, m)
	}
	n.queue = kept
	heap.Init(&n.queue)
	// Log drops in send order (seq), the order the pre-heap queue kept
	// naturally — the heap's internal array order is not meaningful.
	sort.Slice(dropped, func(i, j int) bool { return dropped[i].seq < dropped[j].seq })
	for _, m := range dropped {
		n.metrics.PartitionKills.Inc()
		n.logLocked(Event{Kind: EvDrop, From: n.addrs[m.from], To: n.addrs[m.to], Frame: m.frame, Size: len(m.payload), Note: reason})
		n.putMsgLocked(m)
	}
}

// getMsgLocked and putMsgLocked recycle message structs through a free
// list: at 256 nodes a single fan-out round puts tens of thousands of
// messages in flight, and without recycling every one is garbage the
// moment it is delivered.
func (n *Network) getMsgLocked() *message {
	if k := len(n.free); k > 0 {
		m := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return m
	}
	return &message{}
}

func (n *Network) putMsgLocked(m *message) {
	*m = message{}
	n.free = append(n.free, m)
}

func (n *Network) logLocked(e Event) {
	n.evSeq++
	e.Seq = n.evSeq
	e.At = n.nowFn().Sub(n.start)
	h := fnvMix(n.digest, e.Seq)
	h = fnvMix(h, uint64(e.At))
	h = fnvMixString(h, string(e.Kind))
	h = fnvMixString(h, e.From)
	h = fnvMixString(h, e.To)
	h = fnvMix(h, uint64(e.Frame)<<32|uint64(uint32(e.Size)))
	h = fnvMixString(h, e.Note)
	n.digest = h
	if n.recording {
		n.events = append(n.events, e)
	}
}

// Events returns a copy of the event log so far.
func (n *Network) Events() []Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Event(nil), n.events...)
}

// EventLog renders the whole event log, one line per event.
func (n *Network) EventLog() string {
	events := n.Events()
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Pending returns the number of in-flight messages.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// NextDue returns the delivery time of the earliest in-flight message.
func (n *Network) NextDue() (time.Time, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) == 0 {
		return time.Time{}, false
	}
	return n.queue[0].due, true
}

// DeliverNext pops the earliest in-flight message (ties broken by send
// order) and hands it to the destination handler inline, with the payload
// slice its sender passed to Send. It reports whether a message was
// processed; messages to closed or disconnected endpoints are consumed and
// logged as drops.
func (n *Network) DeliverNext() bool {
	n.mu.Lock()
	if n.lastDelivered != nil {
		// The previous delivery's handler has returned; its message struct
		// can go back on the free list now.
		n.putMsgLocked(n.lastDelivered)
		n.lastDelivered = nil
	}
	if len(n.queue) == 0 {
		n.mu.Unlock()
		return false
	}
	m := heap.Pop(&n.queue).(*message)
	from, to := n.addrs[m.from], n.addrs[m.to]
	if n.blocked[linkKey{from, to}] {
		n.metrics.PartitionKills.Inc()
		n.logLocked(Event{Kind: EvDrop, From: from, To: to, Frame: m.frame, Size: len(m.payload), Note: "cut"})
		n.putMsgLocked(m)
		n.mu.Unlock()
		return true
	}
	dst := n.byNum[m.to]
	if dst.closed || !dst.peers.has(m.from) {
		n.metrics.PartitionKills.Inc()
		n.logLocked(Event{Kind: EvDrop, From: from, To: to, Frame: m.frame, Size: len(m.payload), Note: "no connection"})
		n.putMsgLocked(m)
		n.mu.Unlock()
		return true
	}
	n.metrics.Delivered.Inc()
	n.logLocked(Event{Kind: EvDeliver, From: from, To: to, Frame: m.frame, Size: len(m.payload)})
	handler := dst.handler
	frame, payload := m.frame, m.payload
	n.lastDelivered = m
	n.mu.Unlock()
	// Handler runs outside the lock: it may send, connect or partition.
	// The payload is the sender's own slice, shared with any duplicate of
	// the frame: frames are immutable after Send (p2p.Transport).
	handler.HandleFrame(from, frame, payload)
	return true
}

// enqueueLocked applies the link's fault model to one send. The queue holds
// the sender's slice, and a duplicate delivery shares it: frames are
// immutable after Send (p2p.Transport), so nothing is copied. It reports
// false when the radio has no path to the destination, which the sender
// learns at once, like a route lookup failing.
func (n *Network) enqueueLocked(src, dst *Endpoint, frame byte, payload []byte) bool {
	from, to := src.addr, dst.addr
	n.metrics.Sends.Inc()
	n.logLocked(Event{Kind: EvSend, From: from, To: to, Frame: frame, Size: len(payload)})
	key := linkKey{from, to}
	if n.blocked[key] {
		// The sender cannot tell a partition from slow peers; the loss is
		// silent, exactly like a TCP write buffered into a dead link.
		n.metrics.PartitionKills.Inc()
		n.logLocked(Event{Kind: EvDrop, From: from, To: to, Frame: frame, Size: len(payload), Note: "partition"})
		return true
	}
	p, ok := n.links[key]
	if !ok {
		p = n.defaults
	}
	if p.Drop > 0 && n.rng.Float64() < p.Drop {
		n.metrics.Drops.Inc()
		n.logLocked(Event{Kind: EvDrop, From: from, To: to, Frame: frame, Size: len(payload), Note: "loss"})
		return true
	}
	hop, reachable := n.radioHopLocked(from, to, len(payload))
	if !reachable {
		n.metrics.PartitionKills.Inc()
		n.logLocked(Event{Kind: EvDrop, From: from, To: to, Frame: frame, Size: len(payload), Note: "unreachable"})
		return false
	}
	n.scheduleLocked(src, dst, frame, payload, p, hop)
	if p.Duplicate > 0 && n.rng.Float64() < p.Duplicate {
		n.metrics.Dups.Inc()
		n.logLocked(Event{Kind: EvDuplicate, From: from, To: to, Frame: frame, Size: len(payload)})
		hop, _ = n.radioHopLocked(from, to, len(payload))
		n.scheduleLocked(src, dst, frame, payload, p, hop)
	}
	return true
}

// radioHopLocked is the radio latency of one frame, billed to its ends;
// without a radio, or between addresses it does not place, a frame is one
// instant hop.
func (n *Network) radioHopLocked(from, to string, size int) (time.Duration, bool) {
	a, okA := n.radioIdx[from]
	b, okB := n.radioIdx[to]
	if n.radio == nil || !okA || !okB {
		return 0, true
	}
	return n.radio.Send(a, b, size)
}

func (n *Network) scheduleLocked(src, dst *Endpoint, frame byte, payload []byte, p Params, hop time.Duration) {
	key := linkKey{src.addr, dst.addr}
	due := n.nowFn().Add(hop + p.delay(n.rng))
	reordered := p.Reorder > 0 && n.rng.Float64() < p.Reorder
	if reordered {
		n.metrics.Reorders.Inc()
	}
	if !reordered && due.Before(n.lastDue[key]) {
		due = n.lastDue[key]
	}
	if due.After(n.lastDue[key]) {
		n.lastDue[key] = due
	}
	n.msgSeq++
	m := n.getMsgLocked()
	*m = message{
		seq:     n.msgSeq,
		from:    src.num,
		to:      dst.num,
		frame:   frame,
		payload: payload,
		due:     due,
	}
	heap.Push(&n.queue, m)
}

// Listen registers a new endpoint under addr. The address must not be in
// use by a live endpoint; a closed one may be replaced (node restart).
func (n *Network) Listen(addr string, h p2p.Handler) (*Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("memnet: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	old, ok := n.endpoints[addr]
	if ok && !old.closed {
		return nil, fmt.Errorf("memnet: address %s in use", addr)
	}
	var num int32
	if ok {
		num = old.num // a restart keeps its address's number
	} else {
		num = n.numberLocked(addr)
	}
	e := &Endpoint{net: n, addr: addr, num: num, handler: h, peers: make(peerSet, words(len(n.addrs)))}
	if g, ok := h.(p2p.Greeter); ok {
		e.hello = g.Hello()
	}
	n.endpoints[addr] = e
	n.byNum[num] = e
	return e, nil
}

// numberLocked gives a new address the next number, inserts it into the
// address order and returns it, growing every endpoint's peer set when the
// numbering needs another word.
func (n *Network) numberLocked(addr string) int32 {
	num := int32(len(n.addrs))
	n.addrs = append(n.addrs, addr)
	n.byNum = append(n.byNum, nil)
	at, _ := slices.BinarySearchFunc(n.order, addr, func(k int32, a string) int { return strings.Compare(n.addrs[k], a) })
	n.order = slices.Insert(n.order, at, num)
	if num%64 == 0 { // the new number starts a word
		for _, e := range n.byNum[:num] {
			e.peers = append(e.peers, 0)
		}
	}
	return num
}

// Endpoint is one memnet attachment point, implementing p2p.Transport.
// All state is guarded by the owning Network's lock.
type Endpoint struct {
	net     *Network
	addr    string
	handler p2p.Handler
	num     int32  // the address's number in the network
	hello   []byte // the handler's, if it is a p2p.Greeter: read once at Listen
	peers   peerSet
	npeers  int // how many bits peers has set
	closed  bool
	// sorted caches the peers in address order. setPeerLocked and Close drop
	// it; the next use rebuilds it into a fresh slice, so every snapshot
	// Peers handed out keeps its view.
	sorted []string
}

var _ p2p.Transport = (*Endpoint)(nil)

// Addr returns the endpoint's symbolic address.
func (e *Endpoint) Addr() string { return e.addr }

// Radio returns the radio model the network carries frames over, nil on a
// clique.
func (e *Endpoint) Radio() *netsim.Radio {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return e.net.radio
}

// Connect establishes a symmetric link with the peer at addr (mirroring
// the TCP transport's hello handshake). Connecting to self or an existing
// peer is a no-op; connecting to a missing or closed endpoint fails. Each
// end's Greeter gets the other's hello before Connect returns, like the peer
// lists: no event, no delay, before any frame of the link can be delivered.
func (e *Endpoint) Connect(addr string) error {
	n := e.net
	n.mu.Lock()
	if e.closed {
		n.mu.Unlock()
		return fmt.Errorf("memnet: endpoint %s closed", e.addr)
	}
	dst, ok := n.endpoints[addr]
	if addr == e.addr || ok && e.peers.has(dst.num) {
		n.mu.Unlock()
		return nil
	}
	if !ok || dst.closed {
		n.mu.Unlock()
		return fmt.Errorf("memnet: connect %s: connection refused", addr)
	}
	e.setPeerLocked(dst.num, true)
	dst.setPeerLocked(e.num, true)
	n.logLocked(Event{Kind: EvConnect, From: e.addr, To: addr})
	n.mu.Unlock()
	// Greeters run outside the lock, as handlers do: they may send.
	greet(dst, e)
	greet(e, dst)
	return nil
}

// greet hands from's hello, if it has one, to to's handler if it is a Greeter.
func greet(to, from *Endpoint) {
	if g, ok := to.handler.(p2p.Greeter); ok && len(from.hello) > 0 {
		g.HandleHello(from.addr, from.hello)
	}
}

// Peers returns the connected peer addresses in sorted order, as the shared
// snapshot p2p.Transport describes: callers must not modify it.
func (e *Endpoint) Peers() []string {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	return e.sortedPeersLocked()
}

// setPeerLocked adds or removes the peer numbered num and drops the sorted
// cache.
func (e *Endpoint) setPeerLocked(num int32, connected bool) {
	switch {
	case connected && !e.peers.has(num):
		e.peers.add(num)
		e.npeers++
	case !connected && e.peers.has(num):
		e.peers.remove(num)
		e.npeers--
	}
	e.sorted = nil
}

// sortedPeersLocked returns the cached sorted snapshot, which nobody may
// modify: Peers hands it out as is. A change to the peer set drops the cache
// and the next call builds a fresh slice, so a snapshot already handed out
// never changes (copy-on-write). The relay planes ask once per relayed item
// per node: sorting the peer map on every call was a fifth of the CPU of a
// 256-node run, and copying the snapshot out a twentieth. A rebuild walks
// the network's address order and sorts nothing.
func (e *Endpoint) sortedPeersLocked() []string {
	if e.sorted == nil && e.npeers > 0 {
		n := e.net
		e.sorted = make([]string, 0, e.npeers)
		for _, k := range n.order {
			if e.peers.has(k) {
				if e.sorted = append(e.sorted, n.addrs[k]); len(e.sorted) == e.npeers {
					break
				}
			}
		}
	}
	return e.sorted
}

// Send enqueues one frame for a specific peer. A dead peer endpoint fails
// the send and tears the link down, like a TCP write error; a peer the
// radio cannot reach right now fails it and keeps the link.
func (e *Endpoint) Send(peerAddr string, frameType byte, payload []byte) error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return fmt.Errorf("memnet: endpoint %s closed", e.addr)
	}
	dst, ok := n.endpoints[peerAddr]
	if !ok || !e.peers.has(dst.num) {
		return fmt.Errorf("memnet: unknown peer %s", peerAddr)
	}
	if dst.closed {
		e.setPeerLocked(dst.num, false)
		n.logLocked(Event{Kind: EvDisconnect, From: e.addr, To: peerAddr, Note: "send failed"})
		return fmt.Errorf("memnet: peer %s gone", peerAddr)
	}
	if !n.enqueueLocked(e, dst, frameType, payload) {
		return fmt.Errorf("memnet: no radio path to %s", peerAddr)
	}
	return nil
}

// Close detaches the endpoint: peers observe a disconnect (as a TCP read
// loop would) and in-flight messages to it are dropped at delivery time.
func (e *Endpoint) Close() error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	n.logLocked(Event{Kind: EvClose, From: e.addr})
	// Address order: disconnect events must appear in a deterministic
	// order for the same-seed ⇒ same-log guarantee.
	for _, k := range n.order {
		if other := n.byNum[k]; other != e && other.peers.has(e.num) {
			other.setPeerLocked(e.num, false)
			n.logLocked(Event{Kind: EvDisconnect, From: other.addr, To: e.addr, Note: "peer closed"})
		}
	}
	clear(e.peers)
	e.npeers = 0
	e.sorted = nil
	return nil
}
