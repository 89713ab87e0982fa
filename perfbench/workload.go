package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"tempo/internal/command"
	"tempo/internal/workload"
)

// workloadSpec is one traffic mix of the benchmark.
type workloadSpec struct {
	name      string
	wan       bool          // the paper's 5 EC2 sites; else 3 sites
	profile   string        // chaos profile shaping the replicas' links ("" for none)
	durable   bool          // replicas keep data directories (WAL + snapshots)
	keys      int           // key space
	zipfTheta float64       // 0: uniform keys
	getShare  float64       // share of Gets; the rest are Puts
	valueSize int           // bytes per Put value (at least opNumBytes)
	preload   bool          // write every key once before timing
	rate      float64       // ops/s over both sessions
	limit     time.Duration // latency limit behind slo_met_ratio
	// maxSteal is the most steal a window of the load may have, as a
	// share of the machine's CPU time in it, for its ops to count (see
	// steal.go). Sub-millisecond latency moves with any steal.
	maxSteal float64
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records
// why each was chosen.
var workloads = []workloadSpec{
	{name: "lan-put", keys: 100_000, valueSize: 16, rate: 3000, limit: 10 * time.Millisecond, maxSteal: 0.10},
	{name: "wan5-zipf", wan: true, profile: "ring", keys: 1000, zipfTheta: 0.99, valueSize: 16, rate: 1000, limit: 400 * time.Millisecond,
		maxSteal: 0.25},
	{name: "durable-mixed", profile: "metro", durable: true, keys: 20_000, zipfTheta: 0.99, getShare: 0.5, valueSize: 1024,
		preload: true, rate: 2000, limit: 50 * time.Millisecond, maxSteal: 0.25},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// opNumBytes is the prefix of every Put value carrying the generator's
// op number, so a value read back names the op that wrote it.
const opNumBytes = 8

// genOp is one generated operation. Op numbers start at 1 and are
// unique across a run (preload, set-up and load ops alike).
type genOp struct {
	num uint64
	put bool
	key int
}

// opGen draws a workload's ops from a seeded source.
type opGen struct {
	w    workloadSpec
	rng  *rand.Rand
	zipf *workload.Zipfian
	next uint64
	// keyNames caches formatted keys.
	keyNames []string
}

func newOpGen(w workloadSpec, seed int64) *opGen {
	g := &opGen{w: w, rng: rand.New(rand.NewSource(seed)), next: 1}
	if w.zipfTheta > 0 {
		g.zipf = workload.NewZipfian(w.keys, w.zipfTheta)
	}
	g.keyNames = make([]string, w.keys)
	for i := range g.keyNames {
		g.keyNames[i] = fmt.Sprintf("k%06d", i)
	}
	return g
}

// num reserves the next op number.
func (g *opGen) num() uint64 {
	n := g.next
	g.next++
	return n
}

// load draws the next load op.
func (g *opGen) load() genOp {
	var key int
	if g.zipf != nil {
		key = g.zipf.Sample(g.rng)
	} else {
		key = g.rng.Intn(g.w.keys)
	}
	put := g.w.getShare == 0 || g.rng.Float64() >= g.w.getShare
	return genOp{num: g.num(), put: put, key: key}
}

// command materializes o for the client API.
func (g *opGen) command(o genOp) command.Op {
	k := command.Key(g.keyNames[o.key])
	if !o.put {
		return command.Op{Kind: command.Get, Key: k}
	}
	return command.Op{Kind: command.Put, Key: k, Value: putValue(o.num, g.w.valueSize)}
}

// putValue is the value op number n writes: the number, then filler
// derived from it, so a read-back detects a torn or foreign value.
func putValue(n uint64, size int) []byte {
	v := make([]byte, max(size, opNumBytes))
	binary.BigEndian.PutUint64(v, n)
	x := n*0x9E3779B97F4A7C15 + 1
	for i := opNumBytes; i < len(v); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

// valueOpNum extracts the op number from a value written by putValue,
// or false when the value is not one putValue could have produced.
func valueOpNum(v []byte, size int) (uint64, bool) {
	if len(v) != max(size, opNumBytes) {
		return 0, false
	}
	n := binary.BigEndian.Uint64(v)
	if n == 0 || string(putValue(n, size)) != string(v) {
		return 0, false
	}
	return n, true
}
