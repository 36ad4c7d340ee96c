// Package raft implements the Raft consensus algorithm (Ongaro &
// Ousterhout, USENIX ATC 2014) used by the paper for "general information
// consensus" over edge devices (Section VI: "we implement raft algorithm
// in our blockchain system").
//
// The implementation covers leader election, log replication, commitment
// and follower catch-up, and runs single-threaded over a sim.Clock and an
// abstract Transport so it plugs into the deterministic simulation. It
// counts every message sent per type, which powers the heartbeat-overhead
// ablation the paper calls out as future work ("the approach transmits a
// large number of heartbeat messages").
package raft

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sim"
)

// NodeID identifies a Raft peer.
type NodeID int

// State is the node's current role.
type State int

// Raft roles.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Entry is one log entry.
type Entry struct {
	Term uint64
	Cmd  []byte
}

// Message is the union of Raft RPCs. Exactly one field group is used per
// message; Type discriminates.
type Message struct {
	Type MsgType
	From NodeID
	Term uint64

	// RequestVote fields.
	LastLogIndex uint64
	LastLogTerm  uint64

	// Vote reply.
	VoteGranted bool

	// AppendEntries fields.
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64

	// AppendEntries reply.
	Success    bool
	MatchIndex uint64
}

// MsgType discriminates Raft RPCs.
type MsgType int

// Raft RPC types.
const (
	MsgRequestVote MsgType = iota + 1
	MsgVoteReply
	MsgAppendEntries
	MsgAppendReply
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgRequestVote:
		return "RequestVote"
	case MsgVoteReply:
		return "VoteReply"
	case MsgAppendEntries:
		return "AppendEntries"
	case MsgAppendReply:
		return "AppendReply"
	default:
		return fmt.Sprintf("msg(%d)", int(t))
	}
}

// WireSize approximates the encoded size of the message in bytes, for
// network-overhead accounting.
func (m *Message) WireSize() int {
	size := 64 // fixed header fields
	for _, e := range m.Entries {
		size += 16 + len(e.Cmd)
	}
	return size
}

// Transport delivers a message to a peer. Implementations may drop or
// delay messages arbitrarily; Raft tolerates both.
type Transport interface {
	Send(to NodeID, msg *Message)
}

// Config configures one Raft node.
type Config struct {
	// ID is this node; Peers lists all other nodes.
	ID    NodeID
	Peers []NodeID
	// ElectionTimeoutMin/Max bound the randomized election timeout
	// (defaults 150-300 ms).
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's idle AppendEntries period
	// (default 50 ms).
	HeartbeatInterval time.Duration
	// Transport sends messages; Clock schedules timeouts.
	Transport Transport
	Clock     sim.Clock
	// RNG randomizes election timeouts.
	RNG *rand.Rand
	// Apply is called once per committed entry, in log order.
	Apply func(index uint64, cmd []byte)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ElectionTimeoutMin == 0 {
		out.ElectionTimeoutMin = 150 * time.Millisecond
	}
	if out.ElectionTimeoutMax == 0 {
		out.ElectionTimeoutMax = 2 * out.ElectionTimeoutMin
	}
	if out.HeartbeatInterval == 0 {
		out.HeartbeatInterval = 50 * time.Millisecond
	}
	return out
}

// Stats counts sent messages by type.
type Stats struct {
	Sent map[MsgType]uint64
	// Elections counts election rounds started by this node.
	Elections uint64
}

// Node is one Raft participant. All methods must be called from the
// simulation goroutine.
type Node struct {
	cfg Config

	state       State
	currentTerm uint64
	votedFor    NodeID  // -1 when none
	log         []Entry // log[0] is a sentinel with Term 0

	commitIndex uint64
	lastApplied uint64

	// Leader volatile state.
	nextIndex  map[NodeID]uint64
	matchIndex map[NodeID]uint64

	// Candidate volatile state.
	votes map[NodeID]bool

	leader NodeID // last known leader, -1 unknown

	electionTimer  sim.Timer
	heartbeatTimer sim.Timer
	stopped        bool

	stats Stats
}

// New creates a node and arms its first election timeout.
func New(cfg Config) *Node {
	c := cfg.withDefaults()
	n := &Node{
		cfg:      c,
		state:    Follower,
		votedFor: -1,
		leader:   -1,
		log:      make([]Entry, 1), // sentinel at index 0
		stats:    Stats{Sent: make(map[MsgType]uint64)},
	}
	n.resetElectionTimer()
	return n
}

// State returns the node's role.
func (n *Node) State() State { return n.state }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.currentTerm }

// Leader returns the last known leader, or -1.
func (n *Node) Leader() NodeID { return n.leader }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// LogLen returns the number of real entries in the log.
func (n *Node) LogLen() int { return len(n.log) - 1 }

// Stats returns the message counters.
func (n *Node) Stats() *Stats { return &n.stats }

// Stop halts all timers; the node ignores everything afterwards.
func (n *Node) Stop() {
	n.stopped = true
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
	}
}

// Stopped reports whether Stop was called.
func (n *Node) Stopped() bool { return n.stopped }

func (n *Node) lastLogIndex() uint64 { return uint64(len(n.log) - 1) }

func (n *Node) lastLogTerm() uint64 { return n.log[len(n.log)-1].Term }

func (n *Node) quorum() int { return (len(n.cfg.Peers)+1)/2 + 1 }

func (n *Node) send(to NodeID, msg *Message) {
	msg.From = n.cfg.ID
	n.stats.Sent[msg.Type]++
	n.cfg.Transport.Send(to, msg)
}

func (n *Node) resetElectionTimer() {
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	d := n.cfg.ElectionTimeoutMin
	if span > 0 {
		d += time.Duration(n.cfg.RNG.Int63n(int64(span)))
	}
	n.electionTimer = n.cfg.Clock.AfterFunc(d, n.onElectionTimeout)
}

func (n *Node) onElectionTimeout() {
	if n.stopped || n.state == Leader {
		return
	}
	n.startElection()
}

func (n *Node) startElection() {
	n.state = Candidate
	n.currentTerm++
	n.votedFor = n.cfg.ID
	n.leader = -1
	n.votes = map[NodeID]bool{n.cfg.ID: true}
	n.stats.Elections++
	n.resetElectionTimer()
	for _, p := range n.cfg.Peers {
		n.send(p, &Message{
			Type:         MsgRequestVote,
			Term:         n.currentTerm,
			LastLogIndex: n.lastLogIndex(),
			LastLogTerm:  n.lastLogTerm(),
		})
	}
	if len(n.cfg.Peers) == 0 {
		n.becomeLeader()
	}
}

func (n *Node) becomeFollower(term uint64) {
	n.state = Follower
	n.currentTerm = term
	n.votedFor = -1
	n.votes = nil
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
		n.heartbeatTimer = nil
	}
	n.resetElectionTimer()
}

func (n *Node) becomeLeader() {
	n.state = Leader
	n.leader = n.cfg.ID
	n.votes = nil
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	n.nextIndex = make(map[NodeID]uint64, len(n.cfg.Peers))
	n.matchIndex = make(map[NodeID]uint64, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = n.lastLogIndex() + 1
		n.matchIndex[p] = 0
	}
	n.broadcastAppend()
	n.armHeartbeat()
}

func (n *Node) armHeartbeat() {
	n.heartbeatTimer = n.cfg.Clock.AfterFunc(n.cfg.HeartbeatInterval, func() {
		if n.stopped || n.state != Leader {
			return
		}
		n.broadcastAppend()
		n.armHeartbeat()
	})
}

// Propose appends a command to the leader's log for replication. It
// returns the assigned log index, or ok=false if this node is not the
// leader.
func (n *Node) Propose(cmd []byte) (index uint64, ok bool) {
	if n.stopped || n.state != Leader {
		return 0, false
	}
	n.log = append(n.log, Entry{Term: n.currentTerm, Cmd: cmd})
	idx := n.lastLogIndex()
	n.broadcastAppend()
	n.maybeCommit()
	return idx, true
}

func (n *Node) broadcastAppend() {
	for _, p := range n.cfg.Peers {
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(p NodeID) {
	next := n.nextIndex[p]
	if next == 0 {
		next = 1
	}
	prevIdx := next - 1
	prevTerm := n.log[prevIdx].Term
	var entries []Entry
	if n.lastLogIndex() >= next {
		entries = append(entries, n.log[next:]...)
	}
	n.send(p, &Message{
		Type:         MsgAppendEntries,
		Term:         n.currentTerm,
		PrevLogIndex: prevIdx,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	})
}

// Step feeds an incoming message into the node.
func (n *Node) Step(msg *Message) {
	if n.stopped {
		return
	}
	if msg.Term > n.currentTerm {
		n.becomeFollower(msg.Term)
	}
	switch msg.Type {
	case MsgRequestVote:
		n.handleRequestVote(msg)
	case MsgVoteReply:
		n.handleVoteReply(msg)
	case MsgAppendEntries:
		n.handleAppendEntries(msg)
	case MsgAppendReply:
		n.handleAppendReply(msg)
	}
}

func (n *Node) handleRequestVote(msg *Message) {
	grant := false
	if msg.Term >= n.currentTerm && (n.votedFor == -1 || n.votedFor == msg.From) {
		// Candidate's log must be at least as up to date (§5.4.1).
		upToDate := msg.LastLogTerm > n.lastLogTerm() ||
			(msg.LastLogTerm == n.lastLogTerm() && msg.LastLogIndex >= n.lastLogIndex())
		if upToDate {
			grant = true
			n.votedFor = msg.From
			n.resetElectionTimer()
		}
	}
	n.send(msg.From, &Message{Type: MsgVoteReply, Term: n.currentTerm, VoteGranted: grant})
}

func (n *Node) handleVoteReply(msg *Message) {
	if n.state != Candidate || msg.Term != n.currentTerm || !msg.VoteGranted {
		return
	}
	n.votes[msg.From] = true
	if len(n.votes) >= n.quorum() {
		n.becomeLeader()
	}
}

func (n *Node) handleAppendEntries(msg *Message) {
	if msg.Term < n.currentTerm {
		n.send(msg.From, &Message{Type: MsgAppendReply, Term: n.currentTerm, Success: false})
		return
	}
	// Valid leader for this term.
	if n.state != Follower {
		n.becomeFollower(msg.Term)
	}
	n.leader = msg.From
	n.resetElectionTimer()

	// Log consistency check.
	if msg.PrevLogIndex > n.lastLogIndex() || n.log[msg.PrevLogIndex].Term != msg.PrevLogTerm {
		n.send(msg.From, &Message{Type: MsgAppendReply, Term: n.currentTerm, Success: false, MatchIndex: n.commitIndex})
		return
	}
	// Append entries, truncating conflicts.
	idx := msg.PrevLogIndex
	for i, e := range msg.Entries {
		idx = msg.PrevLogIndex + uint64(i) + 1
		if idx <= n.lastLogIndex() {
			if n.log[idx].Term != e.Term {
				n.log = n.log[:idx]
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	match := msg.PrevLogIndex + uint64(len(msg.Entries))
	if msg.LeaderCommit > n.commitIndex {
		n.commitIndex = min64(msg.LeaderCommit, n.lastLogIndex())
		n.applyCommitted()
	}
	n.send(msg.From, &Message{Type: MsgAppendReply, Term: n.currentTerm, Success: true, MatchIndex: match})
}

func (n *Node) handleAppendReply(msg *Message) {
	if n.state != Leader || msg.Term != n.currentTerm {
		return
	}
	if msg.Success {
		if msg.MatchIndex > n.matchIndex[msg.From] {
			n.matchIndex[msg.From] = msg.MatchIndex
		}
		n.nextIndex[msg.From] = n.matchIndex[msg.From] + 1
		n.maybeCommit()
		return
	}
	// Back off; use the follower's hint (its commit index) when larger.
	next := n.nextIndex[msg.From]
	if next > 1 {
		next--
	}
	if msg.MatchIndex+1 > next {
		next = msg.MatchIndex + 1
	}
	n.nextIndex[msg.From] = next
	n.sendAppend(msg.From)
}

func (n *Node) maybeCommit() {
	// Find the highest index replicated on a quorum with an entry from the
	// current term (§5.4.2).
	matches := make([]uint64, 0, len(n.cfg.Peers)+1)
	matches = append(matches, n.lastLogIndex())
	for _, p := range n.cfg.Peers {
		matches = append(matches, n.matchIndex[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[n.quorum()-1]
	if candidate > n.commitIndex && n.log[candidate].Term == n.currentTerm {
		n.commitIndex = candidate
		n.applyCommitted()
	}
}

func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		if n.cfg.Apply != nil {
			n.cfg.Apply(n.lastApplied, n.log[n.lastApplied].Cmd)
		}
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
