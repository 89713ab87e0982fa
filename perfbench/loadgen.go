package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"tempo/client"
	"tempo/internal/command"
)

// future is a pending reply; *client.Future implements it.
type future interface {
	Wait(ctx context.Context) ([][]byte, error)
}

// doer submits one command; sessionDoer adapts *client.Session.
type doer interface {
	Do(ctx context.Context, ops ...command.Op) future
}

type sessionDoer struct{ s *client.Session }

func (d sessionDoer) Do(ctx context.Context, ops ...command.Op) future { return d.s.Do(ctx, ops...) }

// opRecord is what the generator saw of one op. Times are unix
// nanoseconds, so they line up with the replica host's trace spans.
type opRecord struct {
	op    genOp
	due   int64 // when the schedule wanted it sent
	sent  int64 // Session.Do called
	doEnd int64 // Session.Do returned
	done  int64 // reply observed
	err   error
	value []byte // a Get's reply value
}

func (r *opRecord) latency() time.Duration {
	if r.err != nil {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(r.done - r.due)
}

// runOpenLoop sends ops on a fixed schedule — op i is due at
// start + i/rate, alternating over sessions — whatever the replies do,
// so a stall delays every op queued behind it and each op is timed from
// when it was due. One pacing loop on a locked OS thread sleeps with
// nanosleep: the runtime's timers wake up to a millisecond late, which
// would read as latency. Replies are awaited until every op has one or
// abandonAt passes; unanswered ops fail with the context's error.
func runOpenLoop(sessions []doer, ops []genOp, cmd func(genOp) command.Op, rate float64, start, abandonAt time.Time) []opRecord {
	recs := make([]opRecord, len(ops))
	ctx, cancel := context.WithDeadline(context.Background(), abandonAt)
	defer cancel()
	var wg sync.WaitGroup
	interval := float64(time.Second) / rate
	base := start.UnixNano()

	runtime.LockOSThread()
	for i, o := range ops {
		r := &recs[i]
		r.op = o
		r.due = base + int64(float64(i)*interval)
		sleepUntil(r.due)
		c := cmd(o)
		r.sent = time.Now().UnixNano()
		f := sessions[i%len(sessions)].Do(ctx, c)
		r.doEnd = time.Now().UnixNano()
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals, err := f.Wait(ctx)
			r.done, r.err = time.Now().UnixNano(), err
			if err == nil && !o.put && len(vals) > 0 {
				r.value = vals[0]
			}
		}()
	}
	runtime.UnlockOSThread()
	wg.Wait()
	return recs
}

// sleepUntil blocks the calling thread until the unix-nanosecond
// instant t, retrying after interrupted sleeps.
func sleepUntil(t int64) {
	for {
		d := t - time.Now().UnixNano()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-checks the clock
	}
}

// loadSummary condenses one open-loop phase.
type loadSummary struct {
	attempted, failed, withinLimit int
	lat                            []float64 // ms, ascending; failed ops are +Inf
	lagMS                          []float64 // ascending
	doUS                           []float64 // ascending
}

func summarize(recs []opRecord, limit time.Duration) loadSummary {
	s := loadSummary{attempted: len(recs)}
	for i := range recs {
		r := &recs[i]
		l := r.latency()
		if r.err != nil {
			s.failed++
			s.lat = append(s.lat, math.Inf(1))
		} else {
			s.lat = append(s.lat, float64(l)/1e6)
			if l <= limit {
				s.withinLimit++
			}
		}
		s.lagMS = append(s.lagMS, float64(r.sent-r.due)/1e6)
		s.doUS = append(s.doUS, float64(r.doEnd-r.sent)/1e3)
	}
	sort.Float64s(s.lat)
	sort.Float64s(s.lagMS)
	sort.Float64s(s.doUS)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending sample (0 for
// an empty one).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
