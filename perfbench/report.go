package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// e2eMetrics fills the end-to-end metrics of an untraced load. Latency
// and CPU come from the kept windows; completion counts every op.
func e2eMetrics(m map[string]metric, p *phase) {
	c := p.keptSum
	m["lat_p50_ms"] = metric{finite(quantile(c.lat, 0.5)), "ms"}
	m["slo_met_ratio"] = metric{float64(c.withinLimit) / float64(c.attempted), "ratio"}
	m["completed_ratio"] = metric{p.completed() / float64(p.sum.attempted), "ratio"}
	m["server_cpu_us_per_op"] = metric{p.keptCPUPerOp(), "us"}
	m["server_peak_rss_mb"] = metric{float64(p.proc1.hwmKB) / 1024, "MB"}
}

// stages are the blocking-path durations of the traced commands, in
// ascending order per stage.
type stages struct {
	commitMS, stableMS, execWaitMS, applyUS []float64
}

func commandStages(cmds []cmdTrace) stages {
	var s stages
	for _, c := range cmds {
		if c.Commit == 0 || c.Stable == 0 || c.ApplyStart == 0 {
			continue // still in flight when the window closed
		}
		s.commitMS = append(s.commitMS, float64(c.Commit-c.Submit)/1e6)
		s.stableMS = append(s.stableMS, float64(c.Stable-c.Commit)/1e6)
		s.execWaitMS = append(s.execWaitMS, float64(c.ApplyStart-c.Stable)/1e6)
		s.applyUS = append(s.applyUS, float64(c.ApplyEnd-c.ApplyStart)/1e3)
	}
	for _, v := range [][]float64{s.commitMS, s.stableMS, s.execWaitMS, s.applyUS} {
		sort.Float64s(v)
	}
	return s
}

// layerMetrics fills the per-layer metrics of a traced run: counts and
// resource use from the untraced load u, stage timings and commit paths
// from the traced load t.
func layerMetrics(m map[string]metric, u, t *phase) {
	per := func(v float64) float64 { return v / max(u.completed(), 1) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	h := u.host
	m["loadgen.lag_p99_ms"] = metric{quantile(u.sum.lagMS, 0.99), "ms"}
	m["client.lat_p99_ms"] = metric{finite(quantile(u.sum.lat, 0.99)), "ms"}
	m["loadgen.cpu_us_per_op"] = metric{per(cpuMicros(u.self1.cpuTicks - u.self0.cpuTicks)), "us"}
	m["client.do_us_p50"] = metric{quantile(u.sum.doUS, 0.5), "us"}
	m["cluster.ops_per_batch"] = metric{ratio(float64(h.BatchedOps), float64(h.BatchFlushes)), "count"}
	m["cluster.cmds_per_op"] = metric{ratio(float64(h.SubmittedCmds), float64(h.SubmittedOps)), "count"}
	m["cluster.write_syscalls_per_op"] = metric{per(float64(u.proc1.syscw - u.proc0.syscw)), "count"}
	m["cluster.read_syscalls_per_op"] = metric{per(float64(u.proc1.syscr - u.proc0.syscr)), "count"}
	m["cluster.ctx_switches_per_op"] = metric{per(float64(u.proc1.ctxSwitch) - float64(u.proc0.ctxSwitch)), "count"}
	m["wal.write_bytes_per_op"] = metric{per(float64(u.proc1.writeBytes - u.proc0.writeBytes)), "B"}
	m["shaper.msgs_per_op"] = metric{per(float64(h.ShaperMsgs)), "count"}
	m["shaper.dropped"] = metric{float64(h.ShaperDropped), "count"}
	m["host.allocs_per_op"] = metric{per(float64(h.Mallocs)), "count"}
	m["host.gc_cycles_per_kop"] = metric{1000 * per(float64(h.GCs)), "count"}
	m["host.gc_pause_ms_p99"] = metric{quantile(h.GCPausesMS, 0.99), "ms"}
	m["host.heap_peak_mb"] = metric{h.HeapPeakMB, "MB"}
	m["host.steal_pct"] = metric{stealPct(u.cpu0, u.cpu1), "%"}

	// Commit paths are read from the traced replicas (under their
	// protocol locks).
	th := t.host
	m["tempo.slow_path_ratio"] = metric{ratio(float64(th.Slow), float64(th.Fast+th.Slow)), "ratio"}
	m["tempo.recovered_cmds"] = metric{float64(th.Recovered), "count"}
	tr := th.Trace
	st := commandStages(tr.Cmds)
	committed := float64(len(st.commitMS))
	m["tempo.commit_ms_p50"] = metric{quantile(st.commitMS, 0.5), "ms"}
	m["tempo.commit_ms_p99"] = metric{quantile(st.commitMS, 0.99), "ms"}
	m["tempo.stable_wait_ms_p50"] = metric{quantile(st.stableMS, 0.5), "ms"}
	m["tempo.stable_wait_ms_p99"] = metric{quantile(st.stableMS, 0.99), "ms"}
	m["tempo.step_us_per_cmd"] = metric{ratio(float64(tr.StepNS)/1e3, committed), "us"}
	m["tempo.msgs_per_cmd"] = metric{ratio(float64(tr.Handles), committed), "count"}
	m["tempo.tick_ms_per_s"] = metric{ratio(float64(tr.TickNS)/1e6, t.host.WindowS), "ms/s"}
	m["cluster.exec_wait_ms_p50"] = metric{quantile(st.execWaitMS, 0.5), "ms"}
	m["cluster.exec_wait_ms_p99"] = metric{quantile(st.execWaitMS, 0.99), "ms"}
	m["cluster.exec_queue_max"] = metric{float64(tr.ExecQueueMax), "count"}
	m["kvstore.apply_us_p50"] = metric{quantile(st.applyUS, 0.5), "us"}
	snaps := append([]float64(nil), tr.SnapshotsMS...)
	sort.Float64s(snaps)
	m["wal.snapshots"] = metric{float64(len(snaps)), "count"}
	m["wal.snapshot_ms_p50"] = metric{quantile(snaps, 0.5), "ms"}
	m["wal.snapshot_ms_max"] = metric{quantile(snaps, 1), "ms"}

	// Coverage: how much of the traced run's median latency the timed
	// stages on the blocking path account for. What remains is the
	// client and peer wire, the submit batcher and the reply.
	blocking := quantile(t.sum.lagMS, 0.5) + quantile(t.sum.doUS, 0.5)/1e3 +
		quantile(st.commitMS, 0.5) + quantile(st.stableMS, 0.5) +
		quantile(st.execWaitMS, 0.5) + quantile(st.applyUS, 0.5)/1e3
	m["trace.coverage"] = metric{ratio(blocking, finite(quantile(t.sum.lat, 0.5))), "ratio"}
	m["trace.overhead_cpu"] = metric{ratio(t.serverCPUPerOp(), u.serverCPUPerOp()), "ratio"}
}

// span is one timed interval of the traced run, in unix nanoseconds.
// Spans of one op share its op number; spans of one command share its
// Dot, and a Put op carries the Dot of the command that wrote it.
type span struct {
	Name   string   `json:"name"`
	Start  int64    `json:"start"`
	End    int64    `json:"end"`
	Parent string   `json:"parent,omitempty"`
	Dot    string   `json:"dot,omitempty"`
	Op     uint64   `json:"op,omitempty"`
	Ops    []uint64 `json:"ops,omitempty"`
}

// writeSpans joins the generator's op records with the traced host's
// command traces and writes every span to one file per workload (the
// latest traced run's), returning its path.
func writeSpans(t *phase, w workloadSpec) (string, error) {
	byOp := make(map[uint64]*cmdTrace)
	cmds := t.host.Trace.Cmds
	for i := range cmds {
		for _, n := range cmds[i].Ops {
			byOp[n] = &cmds[i]
		}
	}
	var spans []span
	for i := range t.recs {
		r := &t.recs[i]
		end := r.done
		if r.err != nil {
			end = 0 // never answered
		}
		op := span{Name: "op", Start: r.due, End: end, Op: r.op.num}
		children := []span{
			{Name: "loadgen.queue", Start: r.due, End: r.sent},
			{Name: "client.do", Start: r.sent, End: r.doEnd},
		}
		if c := byOp[r.op.num]; c != nil {
			op.Dot = c.Dot
			children = append(children, span{Name: "cluster.admit", Start: r.doEnd, End: c.Submit})
			if c.ApplyEnd != 0 && end != 0 {
				children = append(children, span{Name: "cluster.reply", Start: c.ApplyEnd, End: end})
			}
		}
		spans = append(spans, op)
		for _, s := range children {
			s.Parent, s.Dot, s.Op = "op", op.Dot, op.Op
			spans = append(spans, s)
		}
	}
	for _, c := range cmds {
		spans = append(spans, span{Name: "cmd", Start: c.Submit, End: c.ApplyEnd, Parent: "op", Dot: c.Dot, Ops: c.Ops})
		stamps := []int64{c.Submit, c.Commit, c.Stable, c.ApplyStart, c.ApplyEnd}
		for i, name := range []string{"tempo.commit", "tempo.stable_wait", "cluster.exec_wait", "kvstore.apply"} {
			if stamps[i] != 0 && stamps[i+1] != 0 {
				spans = append(spans, span{Name: name, Start: stamps[i], End: stamps[i+1], Parent: "cmd", Dot: c.Dot})
			}
		}
	}

	dir := filepath.Join(buildDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
