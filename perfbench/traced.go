package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/check"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
)

// tracedProc wraps a replica for the traced run. Embedding keeps every
// capability cluster.Node detects (IDMinter, DeferredApplier, Durable,
// OpsShard, Shard); the overridden methods time each call into the
// protocol and executor layers and report to the host's recorder.
// Submit, Handle, Tick and DrainStable run under the node's protocol
// lock; ApplyStable and SnapshotTo run on its executor goroutine.
type tracedProc struct {
	*tempo.Process
	pid ids.ProcessID
	rec *recorder
}

func now() int64 { return time.Now().UnixNano() }

func (t *tracedProc) Submit(cmd *command.Command) []proto.Action {
	t0 := now()
	acts := t.Process.Submit(cmd)
	t1 := now()
	t.rec.stepNS.Add(t1 - t0)
	t.rec.submitted(t.pid, cmd, t0)
	t.rec.scanCommits(t.pid, acts, t1)
	return acts
}

func (t *tracedProc) Handle(from ids.ProcessID, msg proto.Message) []proto.Action {
	t0 := now()
	acts := t.Process.Handle(from, msg)
	t1 := now()
	t.rec.stepNS.Add(t1 - t0)
	t.rec.handles.Add(1)
	t.rec.scanCommits(t.pid, acts, t1)
	return acts
}

func (t *tracedProc) Tick(d time.Duration) []proto.Action {
	t0 := now()
	acts := t.Process.Tick(d)
	t1 := now()
	t.rec.stepNS.Add(t1 - t0)
	t.rec.tickNS.Add(t1 - t0)
	t.rec.scanCommits(t.pid, acts, t1)
	// Process.Stats belongs to the protocol lock, which Tick runs under.
	f, s, r := t.Process.Stats()
	t.rec.noteStats(t.pid, [3]uint64{f, s, r})
	return acts
}

func (t *tracedProc) DrainStable() []proto.Stable {
	st := t.Process.DrainStable()
	if len(st) > 0 {
		t.rec.drained(t.pid, st, now())
	}
	return st
}

func (t *tracedProc) ApplyStable(cmd *command.Command, ts uint64) *command.Result {
	t0 := now()
	res := t.Process.ApplyStable(cmd, ts)
	t.rec.applied(t.pid, cmd.ID, t0, now())
	return res
}

func (t *tracedProc) SnapshotTo(w io.Writer) error {
	t0 := now()
	err := t.Process.SnapshotTo(w)
	t.rec.snapshot(t0, now())
	return err
}

// cmdTrace is the blocking path of one command at its coordinator, in
// unix nanoseconds: Submit called, MCommit emitted, DrainStable returned
// it, ApplyStable ran. Ops are the op numbers of its Puts (read from
// their values), which join it to the generator's op records.
type cmdTrace struct {
	Dot        string   `json:"dot"`
	Ops        []uint64 `json:"ops,omitempty"`
	Submit     int64    `json:"submit"`
	Commit     int64    `json:"commit"`
	Stable     int64    `json:"stable"`
	ApplyStart int64    `json:"apply_start"`
	ApplyEnd   int64    `json:"apply_end"`

	coord ids.ProcessID
	cmd   *command.Command
}

// recorder collects the traced host's timings between begin and end,
// and the execution history check.Checker verifies.
type recorder struct {
	stepNS, tickNS, handles atomic.Int64

	pids      []ids.ProcessID
	mu        sync.Mutex
	cmds      map[ids.Dot]*cmdTrace
	order     []*cmdTrace // submission order
	drains    map[ids.ProcessID][]ids.Dot
	snapshots []float64 // ms
	// stats is each replica's latest Process.Stats (fast, slow and
	// recovered commits), copied at its last Tick.
	stats map[ids.ProcessID][3]uint64
}

func newRecorder(pids []ids.ProcessID) *recorder {
	r := &recorder{pids: pids, stats: make(map[ids.ProcessID][3]uint64)}
	r.reset()
	return r
}

// reset starts a new window: timings and history restart empty.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cmds = make(map[ids.Dot]*cmdTrace)
	r.order = nil
	r.drains = make(map[ids.ProcessID][]ids.Dot, len(r.pids))
	for _, p := range r.pids {
		r.drains[p] = nil
	}
	r.snapshots = nil
	r.stepNS.Store(0)
	r.tickNS.Store(0)
	r.handles.Store(0)
}

// quiescent reports whether every replica has drained every command
// submitted so far — nothing is in flight anywhere.
func (r *recorder) quiescent() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.drains {
		if len(d) != len(r.order) {
			return false
		}
	}
	return true
}

func (r *recorder) submitted(pid ids.ProcessID, cmd *command.Command, at int64) {
	ct := &cmdTrace{Dot: fmt.Sprintf("%d.%d", cmd.ID.Source, cmd.ID.Seq), Submit: at, coord: pid, cmd: cmd}
	for _, op := range cmd.Ops {
		if op.Kind == command.Put && len(op.Value) >= opNumBytes {
			ct.Ops = append(ct.Ops, binary.BigEndian.Uint64(op.Value))
		}
	}
	r.mu.Lock()
	r.cmds[cmd.ID] = ct
	r.order = append(r.order, ct)
	r.mu.Unlock()
}

// scanCommits stamps the commit instant of commands pid coordinates:
// the step whose returned actions carry their MCommit (the coordinator
// delivers its own copy inside the step, so only the sends to the other
// replicas leave it).
func (r *recorder) scanCommits(pid ids.ProcessID, acts []proto.Action, at int64) {
	for _, a := range acts {
		mc, ok := a.Msg.(*tempo.MCommit)
		if !ok {
			continue
		}
		r.mu.Lock()
		if ct := r.cmds[mc.ID]; ct != nil && ct.coord == pid && ct.Commit == 0 {
			ct.Commit = at
		}
		r.mu.Unlock()
	}
}

func (r *recorder) drained(pid ids.ProcessID, st []proto.Stable, at int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.drains[pid]
	for _, s := range st {
		d = append(d, s.Cmd.ID)
		if ct := r.cmds[s.Cmd.ID]; ct != nil && ct.coord == pid {
			ct.Stable = at
		}
	}
	r.drains[pid] = d
}

func (r *recorder) applied(pid ids.ProcessID, id ids.Dot, start, end int64) {
	r.mu.Lock()
	if ct := r.cmds[id]; ct != nil && ct.coord == pid {
		ct.ApplyStart, ct.ApplyEnd = start, end
	}
	r.mu.Unlock()
}

func (r *recorder) noteStats(pid ids.ProcessID, st [3]uint64) {
	r.mu.Lock()
	r.stats[pid] = st
	r.mu.Unlock()
}

// commitStats sums the replicas' fast-path, slow-path and recovered
// commits as of their last Tick.
func (r *recorder) commitStats() (fast, slow, recovered uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.stats {
		fast, slow, recovered = fast+st[0], slow+st[1], recovered+st[2]
	}
	return fast, slow, recovered
}

func (r *recorder) snapshot(start, end int64) {
	r.mu.Lock()
	r.snapshots = append(r.snapshots, float64(end-start)/1e6)
	r.mu.Unlock()
}

// window is a copy of what the recorder saw between begin and end.
type window struct {
	traces    []cmdTrace
	cmds      []*command.Command
	drains    map[ids.ProcessID][]ids.Dot
	snapshots []float64
}

func (r *recorder) window() window {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := window{drains: make(map[ids.ProcessID][]ids.Dot, len(r.drains)), snapshots: r.snapshots}
	for _, ct := range r.order {
		w.traces = append(w.traces, *ct)
		w.cmds = append(w.cmds, ct.cmd)
	}
	for pid, d := range r.drains {
		w.drains[pid] = d
	}
	return w
}

// verifyWindow bounds the commands check.Checker.Verify sees at once:
// its Ordering check compares every pair of a log, so a whole run's
// history (tens of thousands of commands) would take minutes.
const verifyWindow = 2048

// verify feeds the window's submissions and per-replica DrainStable
// orders to check.Checker and returns the longest log's length.
// VerifyTotalOrder runs over the whole history; Verify (Validity and
// Ordering) runs over consecutive slices of it, which the total order
// already aligns across replicas.
func (w window) verify() (int, error) {
	all := check.New()
	for _, c := range w.cmds {
		all.Submitted(c)
	}
	longest := 0
	for pid, d := range w.drains {
		all.Executed(check.Log{Process: pid, Order: d})
		longest = max(longest, len(d))
	}
	if err := all.VerifyTotalOrder(); err != nil {
		return 0, err
	}
	for lo := 0; lo < longest; lo += verifyWindow {
		c := check.New()
		for _, cmd := range w.cmds {
			c.Submitted(cmd)
		}
		for pid, d := range w.drains {
			if lo < len(d) {
				c.Executed(check.Log{Process: pid, Order: d[lo:min(len(d), lo+verifyWindow)]})
			}
		}
		if err := c.Verify(); err != nil {
			return 0, err
		}
	}
	return longest, nil
}
