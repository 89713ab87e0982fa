// Command perfbench is the repository's benchmark: open-loop client
// load against a Tempo cluster hosted in a child process, reporting
// client-observed latency, server CPU per op and set-up time, and — in
// a separate traced run — the time spent in each layer.
//
//	bash perfbench/run.sh --workload lan-put --seed 1 --seconds 10 --trace 0
//
// The generator (this process) spawns itself with -host as the replica
// host, which runs every replica of the workload behind cluster.Node on
// loopback TCP. Two client sessions, each connected to its own home
// replica, receive ops from one pacing loop at a fixed rate; each op is
// timed from when it was due. After the load, a seeded sample of the
// written keys is read back through every replica and checked. Latency
// and host CPU are taken over the windows of the load in which the
// hypervisor took little CPU time from the machine (steal.go).
//
// With -trace 0 the last output line carries the end-to-end metrics.
// With -trace 1 the run measures an untraced host first and then a
// host whose replicas are wrapped in tracedProc, and reports per-layer
// metrics; spans go to <build dir>/perfbench/traces. METRICS.md lists
// each metric and the end-to-end number it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"tempo/client"
	"tempo/internal/command"
	"tempo/internal/ids"
)

const (
	// setups is how many hosts a run starts to time set-up; the last one
	// serves the measured load.
	setups = 31
	// opTimeout bounds each op: replies later than this fail the op.
	opTimeout = 5 * time.Second
	// preloadWindow is how many preload Puts are in flight at once.
	preloadWindow = 256
	// readBackKeys is how many written keys are read back per replica.
	readBackKeys = 256
	// maxLagP99MS bounds the generator's lag over the kept windows: a
	// run whose generator sent 1% of their ops later than this is
	// invalid.
	maxLagP99MS = 25
)

// homes are the replicas the two sessions connect to: on the WAN
// workload, Ireland and N. California.
var homes = []ids.ProcessID{1, 2}

func main() {
	hostMode := flag.Bool("host", false, "run as the replica host (spawned by the generator)")
	name := flag.String("workload", "", "workload: lan-put, wan5-zipf or durable-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured load")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dataDir := flag.String("data-dir", "", "host: root of the replicas' data directories")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")

	w, err := lookupWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *hostMode {
		if err := runHost(w, *dataDir, *trace == 1); err != nil {
			log.Fatalf("host: %v", err)
		}
		return
	}
	if *seconds < 1 {
		log.Fatal("-seconds must be at least 1")
	}
	os.Exit(generate(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

// generate runs the benchmark as the load generator and returns the
// exit code, once every process it started has ended.
func generate(w workloadSpec, seed int64, dur time.Duration, traced bool) int {
	// The generator's own garbage collections would delay the pacing
	// loop; its heap is a few MB of op records, so collect less often.
	debug.SetGCPercent(400)
	res, err := run(w, seed, dur, traced)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Println(string(res.line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir is where the benchmark keeps its build, data directories and
// reports, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "perfbench")
	}
	return filepath.Join(".bench_build", "perfbench")
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	line []byte
}

// runContext is printed before the result and saved with it.
type runContext struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Traced      bool        `json:"traced"`
	RateOpsS    float64     `json:"rate_ops_s"`
	LimitMS     float64     `json:"limit_ms"`
	Host        fingerprint `json:"host"`
	SetupS      []float64   `json:"setup_s,omitempty"`
	SetupFree   []bool      `json:"setup_steal_free,omitempty"` // set-ups that lost no CPU time to steal
	Phases      []phaseInfo `json:"phases"`
	Violations  []string    `json:"violations,omitempty"`
	TraceFile   string      `json:"trace_file,omitempty"`
	CheckedCmds int         `json:"checked_cmds,omitempty"`
}

// phaseInfo is the run context of one measured load.
type phaseInfo struct {
	Traced     bool    `json:"traced"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	LatSamples int     `json:"lat_samples"`
	LatP50MS   float64 `json:"lat_p50_ms"`
	LatP99MS   float64 `json:"lat_p99_ms"`
	StealPct   float64 `json:"host.steal_pct"`
	LagP99MS   float64 `json:"loadgen.lag_p99_ms"`
	// The same over the ops due in kept windows (see steal.go), which the
	// end-to-end metrics are taken from.
	KeptWindows  string  `json:"kept_windows"`
	KeptMaxSteal float64 `json:"kept_max_steal_pct"`
	KeptSamples  int     `json:"kept_lat_samples"`
	KeptLatP50MS float64 `json:"kept_lat_p50_ms"`
	KeptLatP99MS float64 `json:"kept_lat_p99_ms"`
	KeptLagP99MS float64 `json:"kept_lag_p99_ms"`
}

// run performs one benchmark run.
func run(w workloadSpec, seed int64, dur time.Duration, traced bool) (*result, error) {
	work := filepath.Join(buildDir(), fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	b := &bench{w: w, gen: newOpGen(w, seed), work: work}
	ctx := runContext{Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Traced: traced,
		RateOpsS: w.rate, LimitMS: float64(w.limit) / 1e6, Host: hostFingerprint()}
	res := &result{Metrics: make(map[string]metric)}

	var phases []*phase
	if traced {
		for _, tr := range []bool{false, true} {
			h, sessions, _, err := b.setUp(tr)
			if err != nil {
				return nil, err
			}
			p, err := b.measure(h, sessions, dur, rand.New(rand.NewSource(seed+1)))
			stopAll(h, sessions)
			if err != nil {
				return nil, err
			}
			phases = append(phases, p)
		}
	} else {
		var h *hostProc
		var sessions []*client.Session
		for i := 0; i < setups; i++ {
			if h != nil {
				stopAll(h, sessions)
			}
			c0, err := readCPUTimes()
			if err != nil {
				return nil, err
			}
			var d time.Duration
			if h, sessions, d, err = b.setUp(false); err != nil {
				return nil, err
			}
			c1, err := readCPUTimes()
			if err != nil {
				return nil, err
			}
			ctx.SetupS = append(ctx.SetupS, d.Seconds())
			ctx.SetupFree = append(ctx.SetupFree, c1.steal == c0.steal)
		}
		p, err := b.measure(h, sessions, dur, rand.New(rand.NewSource(seed+1)))
		stopAll(h, sessions)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	}

	ctx.Host.HostGOMAXPROCS = b.hostProcs
	for _, p := range phases {
		ctx.Phases = append(ctx.Phases, p.info())
		res.Attempted += p.sum.attempted
		res.Failed += p.sum.failed
		ctx.Violations = append(ctx.Violations, p.violations...)
	}
	if traced {
		u, t := phases[0], phases[1]
		ctx.CheckedCmds = t.host.Trace.Checked
		if e := t.host.Trace.CheckErr; e != "" {
			ctx.Violations = append(ctx.Violations, "check.Checker: "+e)
		}
		file, err := writeSpans(t, w)
		if err != nil {
			return nil, err
		}
		ctx.TraceFile = file
		layerMetrics(res.Metrics, u, t)
	} else {
		p := phases[0]
		e2eMetrics(res.Metrics, p)
		res.Metrics["setup_s"] = metric{setupTime(ctx.SetupS, ctx.SetupFree), "s"}
	}
	res.Correct = len(ctx.Violations) == 0
	for _, v := range ctx.Violations {
		log.Printf("violation: %s", v)
	}

	var err error
	if res.line, err = json.Marshal(res); err != nil {
		return nil, err
	}
	ctxLine, err := json.Marshal(struct {
		Context runContext `json:"context"`
	}{ctx})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(ctxLine))
	saved, err := json.MarshalIndent(struct {
		Context runContext `json:"context"`
		Result  *result    `json:"result"`
	}{ctx, res}, "", "  ")
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(buildDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, btoi(traced))), saved, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bench is the generator's state across the hosts of one run.
type bench struct {
	w         workloadSpec
	gen       *opGen
	work      string
	hosts     int
	hostProcs int
	// puts records every Put sent to the current host by op number, for
	// the checks on values read back.
	puts map[uint64]*putInfo
}

// putInfo is what a later read may be checked against.
type putInfo struct {
	key        int
	sent, done int64 // unix ns; done is 0 unless the Put was acknowledged
}

// setupTime is the median set-up time over the set-ups free of steal,
// or over all of them when steal hit most: a set-up of a few
// milliseconds that loses some to steal takes about a third longer.
func setupTime(times []float64, free []bool) float64 {
	var kept []float64
	for i, t := range times {
		if free[i] {
			kept = append(kept, t)
		}
	}
	if 2*len(kept) < len(times) {
		kept = append(kept[:0], times...)
	}
	sort.Float64s(kept)
	return kept[len(kept)/2]
}

// setUp starts a host, connects the sessions and has each serve a
// first op. Its duration is the set-up time.
func (b *bench) setUp(traced bool) (*hostProc, []*client.Session, time.Duration, error) {
	b.hosts++
	b.puts = make(map[uint64]*putInfo)
	t0 := time.Now()
	h, err := startHost(b.w, filepath.Join(b.work, fmt.Sprintf("host-%d", b.hosts)), traced)
	if err != nil {
		return nil, nil, 0, err
	}
	b.hostProcs = h.ready.GOMAXPROCS
	var sessions []*client.Session
	for _, home := range homes {
		s, err := h.session(home)
		if err != nil {
			stopAll(h, sessions)
			return nil, nil, 0, err
		}
		sessions = append(sessions, s)
	}
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			_, errs[i] = s.Execute(ctx, command.Op{Kind: command.Get, Key: "setup"})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		stopAll(h, sessions)
		return nil, nil, 0, fmt.Errorf("first op: %w", err)
	}
	return h, sessions, time.Since(t0), nil
}

// phase is one measured load against one host.
type phase struct {
	traced     bool
	recs       []opRecord
	sum        loadSummary
	host       hostReport
	proc0      procSample // host process at the start of the load
	proc1      procSample // ... and once every op has its reply
	self0      procSample // generator process, likewise
	self1      procSample
	cpu0, cpu1 cpuTimes
	kept       keptLoad    // the ops and host CPU of kept windows
	keptSum    loadSummary // summary of kept.recs
	violations []string
}

func (p *phase) completed() float64 { return float64(p.sum.attempted - p.sum.failed) }

// serverCPUPerOp is the host's user+system CPU per completed op, in µs.
func (p *phase) serverCPUPerOp() float64 {
	return cpuMicros(p.proc1.cpuTicks-p.proc0.cpuTicks) / max(p.completed(), 1)
}

// keptCPUPerOp is the host's CPU over the kept windows, scaled to the
// CPU time the machine kept in them, per op due in them and completed,
// in µs.
func (p *phase) keptCPUPerOp() float64 {
	c := p.kept
	done := p.keptSum.attempted - p.keptSum.failed
	kept := 1 - float64(c.steal)/float64(max(c.total, 1))
	return float64(c.hostNS) / 1e3 / kept / float64(max(done, 1))
}

func (p *phase) info() phaseInfo {
	return phaseInfo{
		Traced:       p.traced,
		Attempted:    p.sum.attempted,
		Failed:       p.sum.failed,
		LatSamples:   len(p.sum.lat),
		LatP50MS:     finite(quantile(p.sum.lat, 0.5)),
		LatP99MS:     finite(quantile(p.sum.lat, 0.99)),
		StealPct:     stealPct(p.cpu0, p.cpu1),
		LagP99MS:     quantile(p.sum.lagMS, 0.99),
		KeptWindows:  fmt.Sprintf("%d/%d", p.kept.windows, p.kept.allWindows),
		KeptMaxSteal: 100 * p.kept.maxSteal,
		KeptSamples:  len(p.keptSum.lat),
		KeptLatP50MS: finite(quantile(p.keptSum.lat, 0.5)),
		KeptLatP99MS: finite(quantile(p.keptSum.lat, 0.99)),
		KeptLagP99MS: quantile(p.keptSum.lagMS, 0.99),
	}
}

// finite reports a latency percentile that falls on a failed op as the
// op timeout, the least a failed op could have taken before giving up.
func finite(ms float64) float64 {
	if math.IsInf(ms, 1) {
		return float64(opTimeout) / 1e6
	}
	return ms
}

// measure preloads the workload's keys, runs the open-loop load for dur
// and reads back a sample of the written keys through every replica.
func (b *bench) measure(h *hostProc, sessions []*client.Session, dur time.Duration, sampleRng *rand.Rand) (*phase, error) {
	p := &phase{traced: h.traced}
	if b.w.preload {
		if err := b.preload(sessions); err != nil {
			return nil, err
		}
	}
	ops := make([]genOp, int(b.w.rate*dur.Seconds()))
	for i := range ops {
		ops[i] = b.gen.load()
		if ops[i].put {
			b.puts[ops[i].num] = &putInfo{key: ops[i].key}
		}
	}
	doers := make([]doer, len(sessions))
	for i, s := range sessions {
		doers[i] = sessionDoer{s}
	}
	var br beginReply
	if err := h.call("begin", &br); err != nil {
		return nil, err
	}
	if br.Error != "" {
		return nil, fmt.Errorf("host begin: %s", br.Error)
	}
	var err error
	if p.proc0, err = readProc(h.pid()); err != nil {
		return nil, err
	}
	if p.self0, err = readProc(os.Getpid()); err != nil {
		return nil, err
	}
	if p.cpu0, err = readCPUTimes(); err != nil {
		return nil, err
	}
	start := time.Now().Add(10 * time.Millisecond)
	samp := startSampler(h.pid(), start)
	p.recs = runOpenLoop(doers, ops, b.gen.command, b.w.rate, start, start.Add(dur+opTimeout))
	p.kept = selectKept(p.recs, samp.stop(), start.Add(dur).UnixNano(), b.w.maxSteal, minKeptShare)
	if p.proc1, err = readProc(h.pid()); err != nil {
		return nil, err
	}
	if p.self1, err = readProc(os.Getpid()); err != nil {
		return nil, err
	}
	if p.cpu1, err = readCPUTimes(); err != nil {
		return nil, err
	}
	if err := h.call("end", &p.host); err != nil {
		return nil, err
	}
	p.sum = summarize(p.recs, b.w.limit)
	p.keptSum = summarize(p.kept.recs, b.w.limit)
	// Validity: the shaped links lose nothing on these profiles, so a
	// drop means the shaper's queue overflowed; and the generator must
	// have kept its schedule in the windows the metrics come from (in a
	// window the hypervisor took, it stalls with everything else).
	if d := p.host.ShaperDropped; d > 0 {
		p.violations = append(p.violations, fmt.Sprintf("shaper dropped %d messages", d))
	}
	if lag := quantile(p.keptSum.lagMS, 0.99); lag > maxLagP99MS {
		p.violations = append(p.violations, fmt.Sprintf("loadgen lag p99 over kept windows %.1f ms above %d: the generator fell behind", lag, maxLagP99MS))
	}

	for i := range p.recs {
		r := &p.recs[i]
		if r.op.put {
			pi := b.puts[r.op.num]
			pi.sent = r.sent
			if r.err == nil {
				pi.done = r.done
			}
		}
	}
	for i := range p.recs {
		if r := &p.recs[i]; !r.op.put && r.err == nil {
			if v := b.checkValue(r.op.key, r.value, r.done); v != "" {
				p.violations = append(p.violations, fmt.Sprintf("get op %d: %s", r.op.num, v))
			}
		}
	}
	vs, err := b.readBack(h, sampleRng)
	if err != nil {
		return nil, err
	}
	p.violations = append(p.violations, vs...)
	return p, nil
}

// preload writes every key once.
func (b *bench) preload(sessions []*client.Session) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sem := make(chan struct{}, preloadWindow)
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for k := 0; k < b.w.keys; k++ {
		o := genOp{num: b.gen.num(), put: true, key: k}
		pi := &putInfo{key: k}
		b.puts[o.num] = pi
		sem <- struct{}{}
		pi.sent = time.Now().UnixNano()
		f := sessions[k%len(sessions)].Do(ctx, b.gen.command(o))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Wait(ctx)
			done := time.Now().UnixNano()
			mu.Lock()
			if err != nil {
				errs = append(errs, err)
			} else {
				pi.done = done
			}
			mu.Unlock()
			<-sem
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// checkValue checks a value read from key at time at (unix ns): it must
// be one the generator wrote to that key, and not one sent after the
// read was answered. An empty reply is only valid for a key no
// acknowledged Put has written.
func (b *bench) checkValue(key int, v []byte, at int64) string {
	if v == nil {
		if b.w.preload {
			return fmt.Sprintf("key %d: preloaded key not found", key)
		}
		return ""
	}
	n, ok := valueOpNum(v, b.w.valueSize)
	if !ok {
		return fmt.Sprintf("key %d: value is not one the generator writes (%d bytes)", key, len(v))
	}
	pi := b.puts[n]
	if pi == nil || pi.sent == 0 {
		return fmt.Sprintf("key %d: value carries op %d, which the generator never sent", key, n)
	}
	if pi.key != key {
		return fmt.Sprintf("key %d: value carries op %d, a Put to key %d", key, n, pi.key)
	}
	if pi.sent > at {
		return fmt.Sprintf("key %d: value of op %d read before the op was sent", key, n)
	}
	return ""
}

// readBack reads a seeded sample of written keys through every replica
// once the load has stopped: every replica must return the same value,
// each a valid write to that key that no later acknowledged Put (one
// sent after it was acknowledged) superseded.
func (b *bench) readBack(h *hostProc, rng *rand.Rand) ([]string, error) {
	lastSent := make(map[int]int64) // newest send of an acknowledged Put, per key
	for _, pi := range b.puts {
		if pi.done != 0 && pi.sent > lastSent[pi.key] {
			lastSent[pi.key] = pi.sent
		}
	}
	keys := make([]int, 0, len(lastSent))
	for k := range lastSent {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(readBackKeys, len(keys))]

	pids := make([]ids.ProcessID, 0, len(h.ready.Addrs))
	for pid := range h.ready.Addrs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	vals := make([][][]byte, len(pids))
	errs := make([]error, len(pids))
	var wg sync.WaitGroup
	for i, pid := range pids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = h.readKeys(pid, keys, b.gen)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	var out []string
	at := time.Now().UnixNano()
	for j, k := range keys {
		for i := range pids[1:] {
			if string(vals[i+1][j]) != string(vals[0][j]) {
				out = append(out, fmt.Sprintf("read-back key %d: replicas %d and %d disagree", k, pids[0], pids[i+1]))
			}
		}
		v := vals[0][j]
		if v == nil {
			out = append(out, fmt.Sprintf("read-back key %d: acknowledged writes lost", k))
			continue
		}
		if s := b.checkValue(k, v, at); s != "" {
			out = append(out, "read-back "+s)
			continue
		}
		n, _ := valueOpNum(v, b.w.valueSize)
		if pi := b.puts[n]; pi.done != 0 && lastSent[k] > pi.done {
			out = append(out, fmt.Sprintf("read-back key %d: op %d superseded by a Put sent after it was acknowledged", k, n))
		}
	}
	return out, nil
}

// hostProc is the generator's handle on a replica host.
type hostProc struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *json.Decoder
	ready  hostReady
	traced bool
	dir    string
}

// startHost spawns a replica host and waits until it serves.
func startHost(w workloadSpec, dir string, traced bool) (*hostProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-host", "-workload", w.name, "-data-dir", dir, "-trace", strconv.Itoa(btoi(traced)))
	cmd.Stderr = os.Stderr
	// The host must not outlive the generator, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &hostProc{cmd: cmd, in: in, out: json.NewDecoder(out), traced: traced, dir: dir}
	if err := h.recv(&h.ready); err != nil {
		h.stop()
		return nil, fmt.Errorf("host start: %w", err)
	}
	return h, nil
}

func (h *hostProc) pid() int { return h.cmd.Process.Pid }

// hostTimeout bounds every exchange with the host.
const hostTimeout = time.Minute

// recv decodes the host's next reply into v (nil discards it).
func (h *hostProc) recv(v any) error {
	if v == nil {
		v = new(json.RawMessage)
	}
	done := make(chan error, 1)
	go func() { done <- h.out.Decode(v) }()
	select {
	case err := <-done:
		return err
	case <-time.After(hostTimeout):
		h.cmd.Process.Kill() // unblocks the decoder
		return errors.New("host did not answer in time")
	}
}

// call sends a command and decodes its reply into v.
func (h *hostProc) call(cmd string, v any) error {
	if _, err := fmt.Fprintln(h.in, cmd); err != nil {
		return fmt.Errorf("host %s: %w", cmd, err)
	}
	if err := h.recv(v); err != nil {
		return fmt.Errorf("host %s: %w", cmd, err)
	}
	return nil
}

// stop shuts the host down and waits for it to exit.
func (h *hostProc) stop() {
	h.in.Close()
	exited := make(chan struct{})
	go func() {
		h.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		h.cmd.Process.Kill()
		<-exited
	}
	os.RemoveAll(h.dir)
}

// session opens a session whose only replica is pid.
func (h *hostProc) session(pid ids.ProcessID) (*client.Session, error) {
	return client.New(client.Config{
		Addrs:          map[ids.ProcessID]string{pid: h.ready.Addrs[pid]},
		RequestTimeout: opTimeout,
	})
}

// readKeys reads keys through replica pid, all in flight at once.
func (h *hostProc) readKeys(pid ids.ProcessID, keys []int, g *opGen) ([][]byte, error) {
	s, err := h.session(pid)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	futures := make([]*client.Future, len(keys))
	for i, k := range keys {
		futures[i] = s.Do(ctx, g.command(genOp{key: k}))
	}
	out := make([][]byte, len(keys))
	for i, f := range futures {
		vals, err := f.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("replica %d key %d: %w", pid, keys[i], err)
		}
		if len(vals) > 0 {
			out[i] = vals[0]
		}
	}
	return out, nil
}

func stopAll(h *hostProc, sessions []*client.Session) {
	for _, s := range sessions {
		s.Close()
	}
	h.stop()
}
