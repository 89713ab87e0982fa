package main

import (
	"sort"
	"time"
)

// On a shared virtual machine the hypervisor now and then runs other
// work on this machine's vCPUs: other tenants, and the virtual disk's
// own I/O. While it does, every thread of the benchmark stalls for
// milliseconds at a time. The guest kernel counts that time as steal.
// Without care it moved identical runs' latency several-fold and their
// host CPU per op by up to 40%. The end-to-end metrics therefore come
// from the load's windowLen slices in which steal stayed at most the
// workload's maxSteal share of the machine's CPU time (the kept
// windows), and host CPU is scaled to the CPU time the machine kept in
// them: measured CPU per op fell in proportion to steal (see
// METRICS.md).

// windowLen is the length of one sampler window.
const windowLen = 100 * time.Millisecond

// minKeptShare is the least share of a load's ops the kept windows
// hold. When the windows within the workload's maxSteal hold fewer, the
// steal limit rises to the least level at which the quietest windows
// hold this share, so a busy machine gives a noisier run, never a failed
// one.
const minKeptShare = 0.25

// windowSample is one reading of the sampler.
type windowSample struct {
	at     int64    // unix ns
	cpu    cpuTimes // machine-wide
	hostNS uint64   // host process CPU
}

// sampler reads the machine's steal time and the host's CPU time every
// windowLen from start until stopped.
type sampler struct {
	stopc   chan struct{}
	done    chan []windowSample
	hostPID int
}

func startSampler(hostPID int, start time.Time) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan []windowSample, 1), hostPID: hostPID}
	go s.run(start)
	return s
}

func (s *sampler) read() (windowSample, bool) {
	at := time.Now().UnixNano()
	cpu, err := readCPUTimes()
	if err != nil {
		return windowSample{}, false
	}
	ns, err := readCPUNanos(s.hostPID)
	if err != nil {
		return windowSample{}, false
	}
	return windowSample{at: at, cpu: cpu, hostNS: ns}, true
}

func (s *sampler) run(start time.Time) {
	var out []windowSample
	defer func() { s.done <- out }()
	select {
	case <-time.After(time.Until(start)):
	case <-s.stopc:
		return
	}
	t := time.NewTicker(windowLen)
	defer t.Stop()
	for {
		if w, ok := s.read(); ok {
			out = append(out, w)
		}
		select {
		case <-s.stopc:
			return
		case <-t.C:
		}
	}
}

// stop ends sampling and returns the samples.
func (s *sampler) stop() []windowSample {
	close(s.stopc)
	return <-s.done
}

// keptLoad is the part of a load that ran in kept windows.
type keptLoad struct {
	recs         []opRecord // ops due in kept windows
	hostNS       uint64     // host CPU over the kept windows
	steal, total uint64     // machine-wide steal and CPU time over them
	windows      int        // kept windows
	allWindows   int        // windows inside the load
	maxSteal     float64    // the steal limit applied (see minKeptShare)
}

// selectKept keeps the ops due in windows whose steal is at most
// maxSteal of the machine's CPU time, or, when those hold less than
// minShare of the ops, in the quietest windows that hold minShare. Only
// windows that end before loadEnd count, so host CPU spent on ops due
// earlier is never divided among ops due later.
func selectKept(recs []opRecord, samples []windowSample, loadEnd int64, maxSteal, minShare float64) keptLoad {
	var c keptLoad
	n := 0
	for n+1 < len(samples) && samples[n+1].at <= loadEnd {
		n++
	}
	c.allWindows = n
	share := make([]float64, n) // steal share of each window
	ops := make([]int, n)       // ops due in each window
	for i := range share {
		a, b := samples[i], samples[i+1]
		share[i] = float64(b.cpu.steal-a.cpu.steal) / float64(max(b.cpu.total-a.cpu.total, 1))
	}
	window := func(due int64) int {
		if n == 0 || due < samples[0].at {
			return -1
		}
		if w := sort.Search(n, func(j int) bool { return samples[j+1].at > due }); w < n {
			return w
		}
		return -1
	}
	for i := range recs {
		if w := window(recs[i].due); w >= 0 {
			ops[w]++
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return share[order[i]] < share[order[j]] })
	limit, held := maxSteal, 0
	for _, w := range order {
		if share[w] > limit && float64(held) >= minShare*float64(len(recs)) {
			break
		}
		limit = max(limit, share[w])
		held += ops[w]
	}
	c.maxSteal = limit
	kept := make([]bool, n)
	for i := range kept {
		if kept[i] = share[i] <= limit; kept[i] {
			a, b := samples[i], samples[i+1]
			c.windows++
			c.hostNS += b.hostNS - a.hostNS
			c.steal += b.cpu.steal - a.cpu.steal
			c.total += b.cpu.total - a.cpu.total
		}
	}
	for i := range recs {
		if w := window(recs[i].due); w >= 0 && kept[w] {
			c.recs = append(c.recs, recs[i])
		}
	}
	return c
}
