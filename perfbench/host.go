package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"tempo/internal/chaos"
	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// The replica host is a child process hosting every replica of the
// workload, built from the constructors tempo-server uses. It prints a
// hostReady line, then answers one JSON value per command line on its
// standard input:
//
//	begin  start a measurement window (traced: once no command is in
//	       flight); replies {"error": ...} if that never happens
//	end    close the window and report it (hostReport)
//
// Closing its standard input shuts it down.

// hostReady is the host's first line of output.
type hostReady struct {
	Addrs      map[ids.ProcessID]string `json:"addrs"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
}

// hostReport covers one begin..end window.
type hostReport struct {
	SubmittedCmds uint64 `json:"submitted_cmds"`
	SubmittedOps  uint64 `json:"submitted_ops"`
	BatchFlushes  uint64 `json:"batch_flushes"`
	BatchedOps    uint64 `json:"batched_ops"`
	Fast          uint64 `json:"fast"`
	Slow          uint64 `json:"slow"`
	Recovered     uint64 `json:"recovered"`
	ShaperMsgs    uint64 `json:"shaper_msgs"`
	ShaperDropped uint64 `json:"shaper_dropped"`
	Mallocs       uint64 `json:"mallocs"`
	GCs           uint32 `json:"gcs"`
	// GCPausesMS holds the stop-the-world pauses of the window's GC
	// cycles (at most the runtime's last 256).
	GCPausesMS []float64 `json:"gc_pauses_ms"`
	HeapPeakMB float64   `json:"heap_peak_mb"`
	WindowS    float64   `json:"window_s"`

	Trace *traceReport `json:"trace,omitempty"`
}

// traceReport is the traced host's part of a hostReport.
type traceReport struct {
	Cmds         []cmdTrace `json:"cmds"`
	SnapshotsMS  []float64  `json:"snapshots_ms"`
	StepNS       int64      `json:"step_ns"`
	TickNS       int64      `json:"tick_ns"`
	Handles      int64      `json:"handles"`
	ExecQueueMax int        `json:"exec_queue_max"`
	Checked      int        `json:"checked"`
	CheckErr     string     `json:"check_err,omitempty"`
}

// hostTopology is the workload's deployment: the paper's five EC2 sites
// for the WAN workload, else three zero-distance sites as tempo-server's
// single-shard mode builds them.
func hostTopology(w workloadSpec) (*topology.Topology, error) {
	if w.wan {
		return topology.EC2(1), nil
	}
	const r = 3
	names := make([]string, r)
	rtt := make([][]time.Duration, r)
	for i := range names {
		names[i] = fmt.Sprintf("site-%d", i)
		rtt[i] = make([]time.Duration, r)
	}
	return topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
}

// runHost serves the workload's replicas until standard input closes.
func runHost(w workloadSpec, dataDir string, traced bool) error {
	topo, err := hostTopology(w)
	if err != nil {
		return err
	}
	var sh *cluster.Shaper
	if w.profile != "" {
		prof, err := chaos.Lookup(w.profile)
		if err != nil {
			return err
		}
		sh = chaos.NewShaper(topo, prof)
		defer sh.Close()
		defer prof.StartFaults(sh, topo)()
	}

	procs := topo.Processes()
	pids := make([]ids.ProcessID, len(procs))
	addrs := make(map[ids.ProcessID]string, len(procs))
	lns := make(map[ids.ProcessID]net.Listener, len(procs))
	for i, pi := range procs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		pids[i] = pi.ID
		lns[pi.ID] = ln
		addrs[pi.ID] = ln.Addr().String()
	}
	var rec *recorder
	if traced {
		rec = newRecorder(pids)
	}
	nodes := make([]*cluster.Node, len(procs))
	for i, pi := range procs {
		p := tempo.New(pi.ID, topo, tempo.Config{})
		var rep proto.Replica = p
		if traced {
			rep = &tracedProc{Process: p, pid: pi.ID, rec: rec}
		}
		n := cluster.NewNode(pi.ID, rep, addrs)
		n.SetBatch(cluster.DefaultBatchOps, cluster.DefaultBatchWindow)
		if sh != nil {
			n.SetShaper(sh)
		}
		if w.durable {
			if err := n.SetDurable(cluster.DurableConfig{
				Dir:           filepath.Join(dataDir, fmt.Sprint(pi.ID)),
				SyncInterval:  2 * time.Millisecond,
				SnapshotEvery: cluster.DefaultSnapshotEvery,
			}); err != nil {
				return err
			}
		}
		nodes[i] = n
	}
	// Durable replicas exchange state while they start, so all start at
	// once.
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = n.StartListener(lns[pids[i]])
		}()
	}
	wg.Wait()
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(hostReady{Addrs: addrs, GOMAXPROCS: runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	h := &hostState{nodes: nodes, sh: sh, rec: rec}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var v any
		switch cmd := strings.TrimSpace(in.Text()); cmd {
		case "begin":
			v = h.begin()
		case "end":
			v = h.end()
		default:
			return fmt.Errorf("perfbench host: unknown command %q", cmd)
		}
		if err := out.Encode(v); err != nil {
			return err
		}
	}
	return in.Err()
}

// hostState is the host's measurement window.
type hostState struct {
	nodes []*cluster.Node
	sh    *cluster.Shaper
	rec   *recorder

	base    hostReport // counters at begin
	baseMem runtime.MemStats
	started time.Time
	stop    chan struct{}
	sampled sync.WaitGroup
	// Written by the samplers, read after they stop.
	heapPeak  uint64
	execQPeak int
}

// counters reads the cumulative counters a window reports deltas of.
func (h *hostState) counters() hostReport {
	var r hostReport
	for _, n := range h.nodes {
		st := n.Stats()
		r.SubmittedCmds += st.SubmittedCmds
		r.SubmittedOps += st.SubmittedOps
		r.BatchFlushes += st.BatchFlushes
		r.BatchedOps += st.BatchedOps
	}
	if h.rec != nil {
		r.Fast, r.Slow, r.Recovered = h.rec.commitStats()
	}
	if h.sh != nil {
		r.ShaperMsgs, r.ShaperDropped = h.sh.Delivered(), h.sh.Dropped()
	}
	return r
}

// beginReply is the host's answer to begin.
type beginReply struct {
	Error string `json:"error,omitempty"`
}

func (h *hostState) begin() any {
	if h.rec != nil {
		// The checker's history starts empty, so nothing submitted before
		// the window may still execute inside it.
		deadline := time.Now().Add(30 * time.Second)
		for !h.rec.quiescent() {
			if time.Now().After(deadline) {
				return beginReply{Error: "commands submitted before the window still in flight after 30s"}
			}
			time.Sleep(time.Millisecond)
		}
		h.rec.reset()
	}
	h.base = h.counters()
	runtime.ReadMemStats(&h.baseMem)
	h.started = time.Now()
	h.heapPeak, h.execQPeak = 0, 0
	h.stop = make(chan struct{})
	h.sampled.Add(1)
	go h.sample()
	return beginReply{}
}

// sample tracks the live heap (and, traced, the executor queues) until
// the window ends.
func (h *hostState) sample() {
	defer h.sampled.Done()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	period := 50 * time.Millisecond
	if h.rec != nil {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for i := 0; ; i++ {
		if h.rec != nil {
			for _, n := range h.nodes {
				h.execQPeak = max(h.execQPeak, n.Stats().ExecQueue)
			}
		}
		if h.rec == nil || i%50 == 0 {
			metrics.Read(heap)
			h.heapPeak = max(h.heapPeak, heap[0].Value.Uint64())
		}
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
	}
}

func (h *hostState) end() any {
	close(h.stop)
	h.sampled.Wait()
	r := h.counters()
	b := h.base
	r.SubmittedCmds -= b.SubmittedCmds
	r.SubmittedOps -= b.SubmittedOps
	r.BatchFlushes -= b.BatchFlushes
	r.BatchedOps -= b.BatchedOps
	r.Fast -= b.Fast
	r.Slow -= b.Slow
	r.Recovered -= b.Recovered
	r.ShaperMsgs -= b.ShaperMsgs
	r.ShaperDropped -= b.ShaperDropped

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Mallocs = ms.Mallocs - h.baseMem.Mallocs
	r.GCs = ms.NumGC - h.baseMem.NumGC
	for i := uint32(0); i < min(r.GCs, uint32(len(ms.PauseNs))); i++ {
		r.GCPausesMS = append(r.GCPausesMS, float64(ms.PauseNs[(ms.NumGC-1-i)%uint32(len(ms.PauseNs))])/1e6)
	}
	sort.Float64s(r.GCPausesMS)
	r.HeapPeakMB = float64(h.heapPeak) / (1 << 20)
	r.WindowS = time.Since(h.started).Seconds()

	if h.rec != nil {
		win := h.rec.window()
		tr := &traceReport{
			Cmds:         win.traces,
			SnapshotsMS:  win.snapshots,
			StepNS:       h.rec.stepNS.Load(),
			TickNS:       h.rec.tickNS.Load(),
			Handles:      h.rec.handles.Load(),
			ExecQueueMax: h.execQPeak,
		}
		n, err := win.verify()
		tr.Checked = n
		if err != nil {
			tr.CheckErr = err.Error()
		}
		r.Trace = tr
	}
	return r
}
