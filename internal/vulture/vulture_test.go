package vulture

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tempo/client"
	"tempo/internal/check"
	"tempo/internal/cluster"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

func TestValueCodecRoundTrip(t *testing.T) {
	for _, ver := range []uint64{0, 1, 7, 1 << 40} {
		val := encodeValue("vult-0001", ver)
		got, err := decodeValue("vult-0001", val)
		if err != nil {
			t.Fatalf("decode(%q): %v", val, err)
		}
		if got != ver {
			t.Fatalf("round trip %d -> %d", ver, got)
		}
	}
	if _, err := decodeValue("vult-0002", encodeValue("vult-0001", 3)); err == nil {
		t.Fatal("wrong key echo must not decode")
	}
	bad := encodeValue("vult-0001", 3)
	bad[0] ^= 0x40
	if _, err := decodeValue("vult-0001", bad); err == nil {
		t.Fatal("corrupted value must not decode")
	}
	if _, err := decodeValue("vult-0001", []byte("junk")); err == nil {
		t.Fatal("junk must not decode")
	}
}

// startVultureCluster boots a plain 3-replica loopback cluster and
// returns the client address map; when checker is non-nil every node's
// execution stream is fed into it.
func startVultureCluster(t *testing.T, checker *check.Incremental) map[ids.ProcessID]string {
	t.Helper()
	const r = 3
	names := make([]string, r)
	rtt := make([][]time.Duration, r)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		rtt[i] = make([]time.Duration, r)
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[ids.ProcessID]string)
	lns := make(map[ids.ProcessID]net.Listener)
	for _, pi := range topo.Processes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[pi.ID] = ln
		addrs[pi.ID] = ln.Addr().String()
	}
	for _, pi := range topo.Processes() {
		pi := pi
		rep := tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: time.Millisecond,
			RecoveryTimeout: time.Hour,
		})
		n := cluster.NewNode(pi.ID, rep, addrs)
		if checker != nil {
			checker.AddProcess(0, pi.ID)
			n.SetExecObserver(func(st proto.Stable) {
				checker.Executed(pi.ID, st.Shard, st.Cmd.ID, st.TS)
			})
		}
		n.StartListener(lns[pi.ID])
		t.Cleanup(func() { n.Close() })
	}
	return addrs
}

// TestVultureCleanRun probes a healthy cluster (with the execution
// checker attached) and must come back with operations done and zero
// violations.
func TestVultureCleanRun(t *testing.T) {
	checker := check.NewIncremental()
	addrs := startVultureCluster(t, checker)
	v, err := New(Config{
		Client:   client.Config{Addrs: addrs},
		Writers:  2,
		Readers:  2,
		Keys:     16,
		Interval: time.Millisecond,
		Checker:  checker,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	if err := v.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	r := v.Report()
	if r.Ops < 100 {
		t.Fatalf("only %d ops completed", r.Ops)
	}
	if r.Writes == 0 || r.Reads == 0 {
		t.Fatalf("lopsided probe mix: %d writes, %d reads", r.Writes, r.Reads)
	}
	if err := v.Failed(); err != nil {
		t.Fatalf("healthy cluster flagged: %v", err)
	}
	if r.CheckerStats == nil || r.CheckerStats.Seen == 0 {
		t.Fatal("execution checker saw no stream")
	}
}

// TestVultureDetectsSeededViolations is the negative control: a rogue
// writer outside the vulture plants (a) a phantom version and (b) a
// corrupt value on vulture-owned keys, and the vulture must flag both.
func TestVultureDetectsSeededViolations(t *testing.T) {
	addrs := startVultureCluster(t, nil)
	v, err := New(Config{
		Client:   client.Config{Addrs: addrs},
		Writers:  1,
		Readers:  2,
		Keys:     2, // tiny keyspace: readers hit the seeded keys fast
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	var runErr atomic.Value
	go func() {
		defer close(done)
		if err := v.Run(ctx); err != nil {
			runErr.Store(err)
		}
	}()

	rogue, err := client.New(client.Config{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	time.Sleep(100 * time.Millisecond) // let the vulture establish floors
	// The owners keep overwriting their keys, so keep re-planting until
	// a probe wins the race and reads the seeded value.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r := v.Report()
		if r.Kinds["phantom-version"] > 0 && r.Kinds["corrupt-value"] > 0 {
			break
		}
		if r.Kinds["phantom-version"] == 0 {
			// Phantom: a version far above anything the owner attempted.
			if err := rogue.Put(ctx, v.keyName(0), encodeValue(v.keyName(0), 1<<40)); err != nil {
				t.Fatalf("seed phantom: %v", err)
			}
		}
		if r.Kinds["corrupt-value"] == 0 {
			// Corruption: bytes that fail the checksum outright.
			if err := rogue.Put(ctx, v.keyName(1), []byte("rotten")); err != nil {
				t.Fatalf("seed corruption: %v", err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if err, ok := runErr.Load().(error); ok {
		t.Fatalf("run: %v", err)
	}
	r := v.Report()
	if r.Kinds["phantom-version"] == 0 {
		t.Fatalf("seeded phantom version not detected: %+v", r.Kinds)
	}
	if r.Kinds["corrupt-value"] == 0 {
		t.Fatalf("seeded corruption not detected: %+v", r.Kinds)
	}
	err = v.Failed()
	if err == nil {
		t.Fatal("Failed() nil despite violations")
	}
	if !strings.Contains(err.Error(), "violation") {
		t.Fatalf("unhelpful failure: %v", err)
	}
}

// TestOutageAttribution exercises the availability-window bookkeeping
// directly: a success after a long gap closes a window attributed to
// the latest injected fault event.
func TestOutageAttribution(t *testing.T) {
	v, err := New(Config{
		Client:          client.Config{Addrs: map[ids.ProcessID]string{1: "127.0.0.1:1"}},
		OutageThreshold: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	v.mu.Lock()
	v.started = now.Add(-10 * time.Second)
	v.lastOK = now.Add(-2 * time.Second)
	v.mu.Unlock()
	v.Event("sigkill")
	v.Event("partition")
	v.noteOp(nil)
	r := v.Report()
	if len(r.Outages) != 1 {
		t.Fatalf("outages = %+v, want one window", r.Outages)
	}
	o := r.Outages[0]
	if o.DurationMS < 1900 {
		t.Fatalf("window %v ms, want ~2000", o.DurationMS)
	}
	if o.After != "partition" {
		t.Fatalf("window attributed to %q, want the latest event", o.After)
	}
	if len(r.Events) != 2 {
		t.Fatalf("events = %+v", r.Events)
	}
	// A prompt follow-up success opens no second window.
	v.noteOp(nil)
	if got := len(v.Report().Outages); got != 1 {
		t.Fatalf("spurious extra window: %d", got)
	}
}

// scriptedKV answers the probes from a script: a write fails with the
// error planted for its version, a read returns the planted version.
type scriptedKV struct {
	writeErr map[uint64]error
	readVer  uint64
}

func (s *scriptedKV) Put(_ context.Context, key string, value []byte) error {
	ver, err := decodeValue(key, value)
	if err != nil {
		return err
	}
	return s.writeErr[ver]
}

func (s *scriptedKV) Get(_ context.Context, key string) ([]byte, error) {
	return encodeValue(key, s.readVer), nil
}

// TestInDoubtWriteBookkeeping drives the probes' version accounting
// directly. A timed-out write is in doubt: it may execute after the
// next, acknowledged write, so reading it below the floor is legal.
// Reads that are really stale, and versions never written, are still
// violations.
func TestInDoubtWriteBookkeeping(t *testing.T) {
	cases := []struct {
		name     string
		writeErr map[uint64]error
		writes   int
		readVer  uint64
		want     string // violation kind, "" for none
	}{
		{"timed-out v5 read after acked v6", map[uint64]error{5: client.ErrTimeout}, 6, 5, ""},
		{"acked v4 read after acked v6", nil, 6, 4, "stale-read"},
		{"acked v4 read after timed-out v5 and acked v6", map[uint64]error{5: client.ErrTimeout}, 6, 4, "stale-read"},
		{"refused v5 read after acked v6", map[uint64]error{5: client.ErrDraining}, 6, 5, "stale-read"},
		{"never-attempted v7", nil, 6, 7, "phantom-version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := New(Config{
				Client:  client.Config{Addrs: map[ids.ProcessID]string{1: "127.0.0.1:1"}},
				Writers: 1,
				Keys:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			kv := &scriptedKV{writeErr: tc.writeErr, readVer: tc.readVer}
			ctx := context.Background()
			for i := 0; i < tc.writes; i++ {
				v.probeWrite(ctx, kv, 0)
			}
			v.probeRead(ctx, kv, 0)
			r := v.Report()
			if tc.want == "" {
				if r.Violations != 0 {
					t.Fatalf("violations %v, want none", r.Details)
				}
				return
			}
			if r.Violations != 1 || r.Kinds[tc.want] != 1 {
				t.Fatalf("violations %v, want one %s", r.Kinds, tc.want)
			}
		})
	}
}
