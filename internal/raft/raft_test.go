package raft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// cluster wires n Raft nodes over an in-memory lossy transport driven by
// the virtual clock.
type cluster struct {
	clock   *sim.VClock
	nodes   map[NodeID]*Node
	applied map[NodeID][]string
	// delay is the one-way message latency.
	delay time.Duration
	// dropProb drops messages; cut[a][b] severs links.
	dropProb float64
	cut      map[[2]NodeID]bool
	rng      *rand.Rand
}

type clusterTransport struct {
	c    *cluster
	from NodeID
}

func (t clusterTransport) Send(to NodeID, msg *Message) {
	c := t.c
	if c.cut[[2]NodeID{t.from, to}] {
		return
	}
	if c.dropProb > 0 && c.rng.Float64() < c.dropProb {
		return
	}
	m := *msg // copy; entries slice shared is fine (append-only)
	c.clock.AfterFunc(c.delay, func() {
		if n, ok := c.nodes[to]; ok && !n.Stopped() {
			n.Step(&m)
		}
	})
}

func newCluster(t *testing.T, n int, seed int64) *cluster {
	t.Helper()
	c := &cluster{
		clock:   sim.NewVClock(time.Time{}),
		nodes:   make(map[NodeID]*Node, n),
		applied: make(map[NodeID][]string, n),
		delay:   10 * time.Millisecond,
		cut:     make(map[[2]NodeID]bool),
		rng:     rand.New(rand.NewSource(seed)),
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	for _, id := range ids {
		id := id
		peers := make([]NodeID, 0, n-1)
		for _, p := range ids {
			if p != id {
				peers = append(peers, p)
			}
		}
		c.nodes[id] = New(Config{
			ID:        id,
			Peers:     peers,
			Transport: clusterTransport{c: c, from: id},
			Clock:     c.clock,
			RNG:       rand.New(rand.NewSource(seed + int64(id) + 100)),
			Apply: func(index uint64, cmd []byte) {
				c.applied[id] = append(c.applied[id], string(cmd))
			},
		})
	}
	return c
}

// run advances virtual time by d.
func (c *cluster) run(t *testing.T, d time.Duration) {
	t.Helper()
	c.clock.Advance(d)
}

// leader returns the unique live leader, or nil.
func (c *cluster) leader() *Node {
	var lead *Node
	for _, n := range c.nodes {
		if !n.Stopped() && n.State() == Leader {
			if lead != nil && lead.Term() == n.Term() {
				return nil // two leaders in same term: test will fail loudly
			}
			if lead == nil || n.Term() > lead.Term() {
				lead = n
			}
		}
	}
	return lead
}

func (c *cluster) waitLeader(t *testing.T, within time.Duration) *Node {
	t.Helper()
	deadline := c.clock.Elapsed() + within
	for c.clock.Elapsed() < deadline {
		c.run(t, 50*time.Millisecond)
		if l := c.leader(); l != nil {
			return l
		}
	}
	t.Fatalf("no leader within %v", within)
	return nil
}

func TestElectsSingleLeader(t *testing.T) {
	c := newCluster(t, 5, 1)
	lead := c.waitLeader(t, 5*time.Second)
	c.run(t, time.Second)
	// All nodes agree on the leader.
	for id, n := range c.nodes {
		if n.Leader() != lead.cfg.ID {
			t.Errorf("node %d thinks leader is %d, want %d", id, n.Leader(), lead.cfg.ID)
		}
	}
	// Exactly one leader.
	count := 0
	for _, n := range c.nodes {
		if n.State() == Leader {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d leaders", count)
	}
}

func TestReplicationAndApply(t *testing.T) {
	c := newCluster(t, 5, 2)
	lead := c.waitLeader(t, 5*time.Second)
	for i := 0; i < 10; i++ {
		if _, ok := lead.Propose([]byte(fmt.Sprintf("cmd-%d", i))); !ok {
			t.Fatal("leader refused proposal")
		}
	}
	c.run(t, 2*time.Second)
	for id, got := range c.applied {
		if len(got) != 10 {
			t.Fatalf("node %d applied %d entries, want 10", id, len(got))
		}
		for i, cmd := range got {
			if want := fmt.Sprintf("cmd-%d", i); cmd != want {
				t.Fatalf("node %d applied[%d] = %q, want %q", id, i, cmd, want)
			}
		}
	}
	if lead.CommitIndex() != 10 {
		t.Fatalf("commit index %d, want 10", lead.CommitIndex())
	}
}

func TestProposeOnFollowerRejected(t *testing.T) {
	c := newCluster(t, 3, 3)
	lead := c.waitLeader(t, 5*time.Second)
	for id, n := range c.nodes {
		if id == lead.cfg.ID {
			continue
		}
		if _, ok := n.Propose([]byte("x")); ok {
			t.Fatalf("follower %d accepted proposal", id)
		}
	}
}

func TestLeaderFailureTriggersReElection(t *testing.T) {
	c := newCluster(t, 5, 4)
	lead := c.waitLeader(t, 5*time.Second)
	if _, ok := lead.Propose([]byte("before")); !ok {
		t.Fatal("proposal failed")
	}
	c.run(t, time.Second)

	lead.Stop() // crash the leader
	// A new leader must emerge among the rest.
	var newLead *Node
	deadline := c.clock.Elapsed() + 10*time.Second
	for c.clock.Elapsed() < deadline {
		c.run(t, 100*time.Millisecond)
		if l := c.leader(); l != nil && l.cfg.ID != lead.cfg.ID {
			newLead = l
			break
		}
	}
	if newLead == nil {
		t.Fatal("no new leader after crash")
	}
	if newLead.Term() <= lead.Term() {
		t.Fatalf("new leader term %d not beyond old %d", newLead.Term(), lead.Term())
	}
	// The new leader still has the committed entry and can extend it.
	if _, ok := newLead.Propose([]byte("after")); !ok {
		t.Fatal("new leader refused proposal")
	}
	c.run(t, 2*time.Second)
	for id, n := range c.nodes {
		if n.Stopped() {
			continue
		}
		got := c.applied[id]
		if len(got) != 2 || got[0] != "before" || got[1] != "after" {
			t.Fatalf("node %d applied %v, want [before after]", id, got)
		}
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	c := newCluster(t, 5, 5)
	lead := c.waitLeader(t, 5*time.Second)
	// Partition the leader plus one follower away from the other three.
	minority := map[NodeID]bool{lead.cfg.ID: true}
	for id := range c.nodes {
		if id != lead.cfg.ID {
			minority[id] = true
			break
		}
	}
	for a := range c.nodes {
		for b := range c.nodes {
			if minority[a] != minority[b] {
				c.cut[[2]NodeID{a, b}] = true
			}
		}
	}
	idx, ok := lead.Propose([]byte("stranded"))
	if !ok {
		t.Fatal("proposal failed")
	}
	c.run(t, 3*time.Second)
	if lead.CommitIndex() >= idx {
		t.Fatal("minority leader committed without quorum")
	}
	// Majority side elects a fresh leader that can commit.
	var majLead *Node
	deadline := c.clock.Elapsed() + 10*time.Second
	for c.clock.Elapsed() < deadline {
		c.run(t, 100*time.Millisecond)
		for id, n := range c.nodes {
			if !minority[id] && n.State() == Leader {
				majLead = n
			}
		}
		if majLead != nil {
			break
		}
	}
	if majLead == nil {
		t.Fatal("majority side failed to elect")
	}
	if _, ok := majLead.Propose([]byte("maj")); !ok {
		t.Fatal("majority leader refused proposal")
	}
	c.run(t, 2*time.Second)
	if majLead.CommitIndex() == 0 {
		t.Fatal("majority failed to commit")
	}

	// Heal: the stranded entry must be discarded in favor of the majority
	// log, and the old leader steps down.
	c.cut = make(map[[2]NodeID]bool)
	c.run(t, 5*time.Second)
	for id := range c.nodes {
		got := c.applied[id]
		if len(got) == 0 || got[len(got)-1] != "maj" {
			t.Fatalf("node %d applied %v, want trailing \"maj\"", id, got)
		}
		for _, cmd := range got {
			if cmd == "stranded" {
				t.Fatalf("node %d applied the uncommitted minority entry", id)
			}
		}
	}
	if lead.State() == Leader && lead.Term() <= majLead.Term() {
		t.Fatal("old leader did not step down after heal")
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	c := newCluster(t, 5, 6)
	c.dropProb = 0.2
	lead := c.waitLeader(t, 20*time.Second)
	for i := 0; i < 5; i++ {
		// Re-find the leader each round; drops may force re-elections.
		if lead.State() != Leader {
			lead = c.waitLeader(t, 20*time.Second)
		}
		lead.Propose([]byte(fmt.Sprintf("c%d", i)))
		c.run(t, time.Second)
	}
	c.run(t, 10*time.Second)
	// At least one node has applied everything the cluster committed; all
	// applied prefixes must be consistent.
	var longest []string
	for _, got := range c.applied {
		if len(got) > len(longest) {
			longest = got
		}
	}
	if len(longest) == 0 {
		t.Fatal("nothing committed under 20% loss")
	}
	for id, got := range c.applied {
		for i := range got {
			if got[i] != longest[i] {
				t.Fatalf("node %d log diverges at %d: %q vs %q", id, i, got[i], longest[i])
			}
		}
	}
}

func TestHeartbeatOverheadGrowsWithFrequency(t *testing.T) {
	// The ablation behind the paper's future-work note: halving the
	// heartbeat interval roughly doubles AppendEntries traffic.
	counts := make(map[time.Duration]uint64)
	for _, hb := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond} {
		clock := sim.NewVClock(time.Time{})
		rng := rand.New(rand.NewSource(7))
		nodes := make(map[NodeID]*Node)
		var transport func(from NodeID) Transport
		transport = func(from NodeID) Transport {
			return transportFunc(func(to NodeID, msg *Message) {
				m := *msg
				clock.AfterFunc(5*time.Millisecond, func() {
					if n, ok := nodes[to]; ok {
						n.Step(&m)
					}
				})
			})
		}
		ids := []NodeID{0, 1, 2}
		for _, id := range ids {
			peers := []NodeID{}
			for _, p := range ids {
				if p != id {
					peers = append(peers, p)
				}
			}
			nodes[id] = New(Config{
				ID: id, Peers: peers,
				HeartbeatInterval: hb,
				Transport:         transport(id),
				Clock:             clock,
				RNG:               rand.New(rand.NewSource(int64(id) + 11)),
			})
		}
		clock.Advance(30 * time.Second)
		var total uint64
		for _, n := range nodes {
			total += n.Stats().Sent[MsgAppendEntries]
		}
		counts[hb] = total
		_ = rng
	}
	fast, slow := counts[50*time.Millisecond], counts[200*time.Millisecond]
	if fast < slow*2 {
		t.Fatalf("50ms heartbeats sent %d AppendEntries vs %d at 200ms; expected ≥ 2x", fast, slow)
	}
	t.Logf("AppendEntries: 50ms=%d 200ms=%d", fast, slow)
}

type transportFunc func(to NodeID, msg *Message)

func (f transportFunc) Send(to NodeID, msg *Message) { f(to, msg) }

func TestSingleNodeClusterSelfElects(t *testing.T) {
	clock := sim.NewVClock(time.Time{})
	applied := 0
	n := New(Config{
		ID:        0,
		Transport: transportFunc(func(NodeID, *Message) {}),
		Clock:     clock,
		RNG:       rand.New(rand.NewSource(1)),
		Apply:     func(uint64, []byte) { applied++ },
	})
	clock.Advance(time.Second)
	if n.State() != Leader {
		t.Fatalf("singleton state = %v, want leader", n.State())
	}
	if _, ok := n.Propose([]byte("solo")); !ok {
		t.Fatal("singleton refused proposal")
	}
	clock.Advance(time.Second)
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
}

func TestWireSize(t *testing.T) {
	m := &Message{Type: MsgAppendEntries, Entries: []Entry{{Cmd: make([]byte, 100)}}}
	if m.WireSize() <= 100 {
		t.Fatal("wire size must exceed payload")
	}
	hb := &Message{Type: MsgAppendEntries}
	if hb.WireSize() != 64 {
		t.Fatalf("heartbeat wire size = %d, want 64", hb.WireSize())
	}
}

func TestStatsCounters(t *testing.T) {
	c := newCluster(t, 3, 8)
	c.waitLeader(t, 5*time.Second)
	c.run(t, 2*time.Second)
	var votes, appends uint64
	var elections uint64
	for _, n := range c.nodes {
		votes += n.Stats().Sent[MsgRequestVote]
		appends += n.Stats().Sent[MsgAppendEntries]
		elections += n.Stats().Elections
	}
	if votes == 0 || appends == 0 || elections == 0 {
		t.Fatalf("counters not incremented: votes=%d appends=%d elections=%d", votes, appends, elections)
	}
}

func TestStringers(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("state strings wrong")
	}
	if State(99).String() == "" {
		t.Fatal("unknown state string empty")
	}
	for _, mt := range []MsgType{MsgRequestVote, MsgVoteReply, MsgAppendEntries, MsgAppendReply, MsgType(99)} {
		if mt.String() == "" {
			t.Fatalf("empty string for %d", int(mt))
		}
	}
}

func TestLogConflictOverwrite(t *testing.T) {
	// A follower with divergent uncommitted entries must have them
	// truncated and replaced by the leader's log.
	c := newCluster(t, 3, 20)
	lead := c.waitLeader(t, 5*time.Second)

	// Pick a follower and inject divergent entries directly (simulating
	// entries from a deposed leader that never committed).
	var follower *Node
	for id, n := range c.nodes {
		if id != lead.cfg.ID {
			follower = n
			break
		}
	}
	// Ghost entries carry an older term (as a deposed leader's would);
	// entries with the leader's own term at the same index would be the
	// leader's entries by Raft's invariants.
	ghostTerm := follower.currentTerm - 1
	follower.log = append(follower.log, Entry{Term: ghostTerm, Cmd: []byte("ghost-1")})
	follower.log = append(follower.log, Entry{Term: ghostTerm, Cmd: []byte("ghost-2")})

	for i := 0; i < 3; i++ {
		if _, ok := lead.Propose([]byte(fmt.Sprintf("real-%d", i))); !ok {
			t.Fatal("propose failed")
		}
	}
	c.run(t, 3*time.Second)
	got := c.applied[follower.cfg.ID]
	if len(got) != 3 {
		t.Fatalf("follower applied %v, want the 3 real entries", got)
	}
	for i, cmd := range got {
		if want := fmt.Sprintf("real-%d", i); cmd != want {
			t.Fatalf("applied[%d] = %q, want %q", i, cmd, want)
		}
	}
	if follower.LogLen() != 3 {
		t.Fatalf("follower log length %d, want 3 (ghosts must be truncated)", follower.LogLen())
	}
}

func TestFollowerCatchUpAfterSilence(t *testing.T) {
	// A follower that was cut off while entries committed must be caught
	// up via the nextIndex backoff path.
	c := newCluster(t, 3, 21)
	lead := c.waitLeader(t, 5*time.Second)
	var follower NodeID = -1
	for id := range c.nodes {
		if id != lead.cfg.ID {
			follower = id
			break
		}
	}
	// Sever the follower.
	for id := range c.nodes {
		c.cut[[2]NodeID{follower, id}] = true
		c.cut[[2]NodeID{id, follower}] = true
	}
	for i := 0; i < 5; i++ {
		lead.Propose([]byte(fmt.Sprintf("e%d", i)))
	}
	c.run(t, 2*time.Second)
	if len(c.applied[follower]) != 0 {
		t.Fatal("severed follower applied entries")
	}
	// Heal. The leader (or a new one) must replicate the backlog.
	c.cut = make(map[[2]NodeID]bool)
	c.run(t, 5*time.Second)
	if got := len(c.applied[follower]); got != 5 {
		t.Fatalf("follower applied %d entries after heal, want 5", got)
	}
}
