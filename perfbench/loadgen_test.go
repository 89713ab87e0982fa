package main

import (
	"context"
	"testing"
	"time"

	"tempo/internal/command"
)

// pausingHost answers every op at once, except that it holds the
// replies to ops arriving during [pauseStart, pauseEnd) until the pause
// ends — a replica host stalled mid-run.
type pausingHost struct{ pauseStart, pauseEnd int64 }

type stubFuture struct{ done chan struct{} }

func (f *stubFuture) Wait(ctx context.Context) ([][]byte, error) {
	select {
	case <-f.done:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (h *pausingHost) Do(ctx context.Context, ops ...command.Op) future {
	f := &stubFuture{done: make(chan struct{})}
	if now := time.Now().UnixNano(); now >= h.pauseStart && now < h.pauseEnd {
		time.AfterFunc(time.Duration(h.pauseEnd-now), func() { close(f.done) })
	} else {
		close(f.done)
	}
	return f
}

// TestOpenLoopCountsStall checks the pacing loop against a host that
// stops answering for 100ms: the ops due during the stall are still
// sent on schedule (the generator's lag stays small), and each reports
// at least the time it waited for the stall to end, counted from when
// it was due.
func TestOpenLoopCountsStall(t *testing.T) {
	const rate = 2000
	start := time.Now().Add(20 * time.Millisecond)
	host := &pausingHost{
		pauseStart: start.Add(300 * time.Millisecond).UnixNano(),
		pauseEnd:   start.Add(400 * time.Millisecond).UnixNano(),
	}
	ops := make([]genOp, rate) // one second of load
	for i := range ops {
		ops[i] = genOp{num: uint64(i + 1), put: true}
	}
	cmd := func(genOp) command.Op { return command.Op{Kind: command.Put, Key: "k"} }
	recs := runOpenLoop([]doer{host, host}, ops, cmd, rate, start, start.Add(5*time.Second))

	inPause := 0
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			t.Fatalf("op %d failed: %v", r.op.num, r.err)
		}
		if r.due < host.pauseStart || r.due >= host.pauseEnd {
			continue
		}
		inPause++
		if wait := time.Duration(host.pauseEnd - r.due); r.latency() < wait {
			t.Errorf("op %d due %v before the stall ended reports %v", r.op.num, wait, r.latency())
		}
	}
	if inPause < rate/10-1 {
		t.Fatalf("only %d ops due during the stall", inPause)
	}
	s := summarize(recs, 10*time.Millisecond)
	// A generator that stopped sending during the stall would lag by up
	// to 100ms on a tenth of the ops. The bound leaves room for a
	// virtual machine's scheduling hiccups, which reach several ms.
	if lag := quantile(s.lagMS, 0.99); lag > maxLagP99MS {
		t.Errorf("loadgen.lag_p99_ms = %.2f, want the schedule kept through the stall", lag)
	}
	if s.withinLimit > len(recs)-inPause+inPause/10 {
		t.Errorf("%d of %d ops within 10ms despite a 100ms stall", s.withinLimit, len(recs))
	}
}

func TestPutValueRoundTrip(t *testing.T) {
	for _, size := range []int{0, 16, 1024} {
		v := putValue(42, size)
		if n, ok := valueOpNum(v, size); !ok || n != 42 {
			t.Fatalf("size %d: got %d %v", size, n, ok)
		}
		v[len(v)-1] ^= 1
		if size > opNumBytes {
			if _, ok := valueOpNum(v, size); ok {
				t.Fatalf("size %d: corrupted value accepted", size)
			}
		}
	}
}
