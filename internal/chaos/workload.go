package chaos

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// WorkloadOptions wire an open-loop workload stream (and optionally a
// churn trace) into a cluster under the virtual clock.
type WorkloadOptions struct {
	// Stream is the open-loop generator configuration. NumNodes must
	// equal the cluster size.
	Stream workload.StreamConfig
	// Churn, when non-empty, schedules node outages: each event crashes
	// its node at At and restarts it Down later. Events whose node is
	// already down (or protected by being dead already) are skipped.
	Churn []workload.ChurnEvent
	// RequestDelay is how long after an item's production its requesters
	// ask for the bytes (default 3 block intervals at the cluster's T0) —
	// enough time for the item to land in a block and be placed.
	RequestDelay time.Duration
	// ConsumerReads makes requesters read like the paper's consumers
	// (§III-B): a request waits until the item's metadata is on the
	// requester's chain, checking again every block interval, and is not
	// made at all if the requester already holds the content as one of the
	// item's storing nodes.
	ConsumerReads bool
	// PayloadBytes sizes each published item's content (default 64).
	PayloadBytes int
}

// WorkloadStats counts what an open-loop run actually did. All fields
// are driven by virtual-clock callbacks, so same seed ⇒ same stats.
type WorkloadStats struct {
	// Published counts successful Publish calls; PublishErrors the ones
	// the node rejected; SkippedDead arrivals whose producer had crashed
	// between scheduling and firing (plus arrivals the generator skipped
	// because no node was alive).
	Published     int
	PublishErrors int
	SkippedDead   int
	// Requests counts RequestData calls issued on requester nodes.
	Requests int
	// ChurnDowns and ChurnRestarts count executed churn transitions.
	ChurnDowns    int
	ChurnRestarts int
}

// WorkloadDriver feeds a cluster from a workload stream, open-loop: each
// arrival is scheduled as a virtual-clock timer, and the next event is
// pulled from the generator only when the current one fires — O(1)
// workload state regardless of horizon, and the generator's alive mask
// sees the cluster exactly as it is at generation time.
type WorkloadDriver struct {
	c     *Cluster
	opts  WorkloadOptions
	s     *workload.Stream
	start time.Duration // virtual time (since epoch) of stream t=0
	stats WorkloadStats
	done  bool
}

// StartWorkload validates opts, starts the churn schedule, and arms the
// first arrival. The driver runs entirely on the cluster's virtual
// clock: advance the cluster (Run/RunUntil) and the workload happens.
func (c *Cluster) StartWorkload(opts WorkloadOptions) (*WorkloadDriver, error) {
	if opts.Stream.NumNodes != c.opts.N {
		return nil, fmt.Errorf("chaos: workload for %d nodes on a %d-node cluster",
			opts.Stream.NumNodes, c.opts.N)
	}
	if opts.RequestDelay <= 0 {
		opts.RequestDelay = 3 * c.opts.T0
	}
	if opts.PayloadBytes <= 0 {
		opts.PayloadBytes = 64
	}
	s, err := workload.NewStream(opts.Stream)
	if err != nil {
		return nil, err
	}
	d := &WorkloadDriver{
		c:     c,
		opts:  opts,
		s:     s,
		start: c.Clock.Now().Sub(c.Epoch),
	}
	s.SetAlive(func(node int) bool { return c.nodes[node] != nil })
	for _, ev := range opts.Churn {
		d.scheduleChurn(ev)
	}
	d.scheduleNext()
	return d, nil
}

// Stats returns the run's counters so far.
func (d *WorkloadDriver) Stats() WorkloadStats { return d.stats }

// Done reports whether the stream is exhausted (every arrival fired).
func (d *WorkloadDriver) Done() bool { return d.done }

// scheduleNext pulls one event from the generator and arms its timer.
func (d *WorkloadDriver) scheduleNext() {
	ev, ok := d.s.Next()
	if !ok {
		d.done = true
		return
	}
	due := d.start + ev.At - d.c.Clock.Now().Sub(d.c.Epoch)
	if due < 0 {
		due = 0
	}
	d.c.Clock.AfterFunc(due, func() { d.fire(ev) })
}

// fire publishes one arrival on its producer, schedules the requester
// fetches, and arms the next event.
func (d *WorkloadDriver) fire(ev workload.Event) {
	// Pull the next arrival first: generation happens at this instant
	// either way, keeping the generator's RNG position a pure function of
	// the schedule (not of whether this producer survived).
	defer d.scheduleNext()

	node := d.c.nodes[ev.Producer]
	if node == nil {
		// The producer crashed between generation (one arrival earlier)
		// and now; the alive mask could not see that yet.
		d.stats.SkippedDead++
		return
	}
	content := make([]byte, d.opts.PayloadBytes)
	copy(content, fmt.Sprintf("open-loop item seq=%08d user=%d", d.s.Seq(), ev.User))
	it, err := node.Publish(content, ev.Type, "")
	if err != nil {
		d.stats.PublishErrors++
		return
	}
	d.stats.Published++
	for _, r := range ev.Requesters {
		var ask func()
		ask = func() {
			n := d.c.nodes[r]
			if n == nil {
				return
			}
			if d.opts.ConsumerReads {
				if !n.HasItemOnChain(it.ID) {
					d.c.Clock.AfterFunc(d.c.opts.T0, ask)
					return
				}
				if n.HasData(it.ID) {
					return
				}
			}
			d.stats.Requests++
			n.RequestData(it.ID)
		}
		d.c.Clock.AfterFunc(d.opts.RequestDelay, ask)
	}
}

// scheduleChurn arms one outage: crash at At, restart Down later.
func (d *WorkloadDriver) scheduleChurn(ev workload.ChurnEvent) {
	now := d.c.Clock.Now().Sub(d.c.Epoch)
	due := d.start + ev.At - now
	if due < 0 {
		due = 0
	}
	d.c.Clock.AfterFunc(due, func() {
		if d.c.nodes[ev.Node] == nil {
			return // already down from an overlapping outage
		}
		if err := d.c.Crash(ev.Node); err != nil {
			return
		}
		d.stats.ChurnDowns++
		d.c.Clock.AfterFunc(ev.Down, func() {
			if d.c.nodes[ev.Node] != nil {
				return
			}
			if err := d.c.Restart(ev.Node); err == nil {
				d.stats.ChurnRestarts++
			}
		})
	})
}
