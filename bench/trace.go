package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans are recorded
// only on a traced run, kept in memory, and written out when the run ends.
// Start and End are nanoseconds since the run began, on the wall clock
// unless Clock says "virtual" (a simulated fetch has no meaningful wall
// duration).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Clock  string `json:"clock"`
	Ref    string `json:"ref,omitempty"` // item or block id, node index
}

// recorder collects spans; a nil recorder records nothing, which is how an
// untraced run pays nothing for tracing.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// wall converts an instant to the recorder's time base.
func (r *recorder) wall(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.t0))
}

// add records a finished span and returns its id.
func (r *recorder) add(name, clock string, parent int, start, end int64, ref string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Clock: clock, Ref: ref})
	return id
}

// open starts a wall-clock span now, so that spans recorded before it is
// closed can name it as their parent.
func (r *recorder) open(name, ref string) int {
	now := r.wall(time.Now())
	return r.add(name, "wall", 0, now, now, ref)
}

// close ends a span started with open.
func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.wall(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// durations returns the length in nanoseconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
