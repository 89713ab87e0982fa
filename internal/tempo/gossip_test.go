package tempo

import (
	"fmt"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/testnet"
)

// gossipTally watches a testnet's traffic: the attached promises made
// (one per fast-quorum member and command, as listed by the coordinator's
// MCommit) and the attached entries carried by MPromises, counted once
// per broadcast whatever the number of recipients.
type gossipTally struct {
	made   map[[2]uint64]bool // {source<<32 | rank, seq}
	sent   int                // attached entries over all MPromises envelopes
	recips int                // recipients of each broadcast (r-1)
}

func (g *gossipTally) observe(e testnet.Env) {
	switch m := e.Msg.(type) {
	case *MCommit:
		for _, a := range m.Attached {
			g.made[[2]uint64{uint64(m.ID.Source)<<32 | uint64(a.Rank), m.ID.Seq}] = true
		}
	case *MPromises:
		g.sent += len(m.Attached)
	}
}

func (g *gossipTally) ratio() float64 {
	return float64(g.sent) / float64(g.recips) / float64(len(g.made))
}

// TestGossipVolumeScalesWithChange pins the cost of attached-promise
// gossip to what changed, not to the backlog: while commands stay
// un-collected for many promise intervals, each attached promise rides
// MPromises once when made plus once per refresh (CommitRequestDelay),
// not once per PromiseInterval.
func TestGossipVolumeScalesWithChange(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	cfg := Config{PromiseInterval: 5 * time.Millisecond, CommitRequestDelay: 50 * time.Millisecond}
	procs, net := makeNet(t, topo, cfg)
	tally := &gossipTally{made: make(map[[2]uint64]bool), recips: len(procs) - 1}
	net.Drop = func(e testnet.Env) bool { tally.observe(e); return false }
	// Starve one replica of commits: it executes nothing, so its executed
	// watermark holds every attached promise un-collected everywhere.
	victim := at(topo, 4, 0)
	net.Hold = func(e testnet.Env) bool {
		_, isCommit := e.Msg.(*MCommit)
		return isCommit && e.To == victim
	}
	var cmds []*command.Command
	for site := 0; site < 5; site++ {
		p := procs[at(topo, site, 0)]
		for k := 0; k < 10; k++ {
			c := command.NewPut(p.NextID(), command.Key(fmt.Sprintf("k%d", k)), []byte{byte(site)})
			cmds = append(cmds, c)
			net.Submit(p.ID(), c)
		}
	}
	net.Drain(0)
	const dt = 5 * time.Millisecond
	const heldIntervals = 60 // >= 40 promise intervals un-collected
	for i := 0; i < heldIntervals; i++ {
		net.Tick(dt)
		net.Drain(0)
	}
	for id, p := range procs {
		if len(p.attachedOwn) == 0 {
			t.Fatalf("process %d collected its attached promises while a replica lags", id)
		}
	}
	if want := len(cmds) * 3; len(tally.made) != want { // fast quorum of r=5, f=1
		t.Fatalf("saw %d attached promises made, want %d", len(tally.made), want)
	}
	lifetime := time.Duration(heldIntervals) * dt
	bound := 1 + float64(lifetime)/float64(cfg.CommitRequestDelay)
	got := tally.ratio()
	t.Logf("lifetime %v: %.2f MPromises entries per attached promise (bound %.2f, per-interval re-send ~%.0f)",
		lifetime, got, bound, float64(lifetime)/float64(cfg.PromiseInterval))
	if got > bound {
		t.Fatalf("MPromises carried %.2f entries per attached promise, want <= 1 + lifetime/CommitRequestDelay = %.2f", got, bound)
	}

	// Released, the lagging replica catches up and every replica
	// collects its promises, the lagging one included: its own
	// watermark, not a peer's, is the last to pass them.
	net.Hold = nil
	net.ReleaseHeld()
	net.Drain(0)
	net.Settle(3, dt)
	for id, p := range procs {
		for _, c := range cmds {
			if phaseOf(p.cmds[c.ID]) != PhaseExecute {
				t.Fatalf("process %d: %v not executed", id, c.ID)
			}
		}
		if len(p.attachedOwn) != 0 {
			t.Fatalf("process %d kept %d attached promises after every replica executed", id, len(p.attachedOwn))
		}
	}
}

// TestMissedCommitRecoveredByRefresh drops one command's MCommit (and so
// its piggybacked promises) to one replica. The attached promises were
// already gossiped once, so only the slow refresh shows the replica the
// command again; its first-sighting rule must still request the commit
// and execute the command within 2×CommitRequestDelay.
func TestMissedCommitRecoveredByRefresh(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	cfg := Config{PromiseInterval: 5 * time.Millisecond, CommitRequestDelay: 50 * time.Millisecond}
	procs, net := makeNet(t, topo, cfg)
	a, victim := at(topo, 0, 0), at(topo, 4, 0)
	cmd := command.NewPut(procs[a].NextID(), "x", []byte("v"))
	dropped := false
	net.Drop = func(e testnet.Env) bool {
		if m, ok := e.Msg.(*MCommit); ok && m.ID == cmd.ID && e.To == victim && !dropped {
			dropped = true
			return true
		}
		return false
	}
	net.Submit(a, cmd)
	net.Drain(0)
	if !dropped {
		t.Fatal("the coordinator's MCommit never reached the victim")
	}
	const dt = 5 * time.Millisecond
	var elapsed time.Duration
	for phaseOf(procs[victim].cmds[cmd.ID]) != PhaseExecute {
		if elapsed >= 2*cfg.CommitRequestDelay {
			t.Fatalf("victim has not executed %v after %v (phase %v)", cmd.ID, elapsed, phaseOf(procs[victim].cmds[cmd.ID]))
		}
		net.Tick(dt)
		net.Drain(0)
		elapsed += dt
	}
	if v, ok := procs[victim].Store().Get("x"); !ok || string(v) != "v" {
		t.Fatalf("victim store holds %q, %v", v, ok)
	}
}

// TestDisablePiggybackSendsEachPromiseOnce runs the piggyback ablation
// without faults: stability then rests on MPromises alone, which must
// carry every attached promise to every peer exactly once.
func TestDisablePiggybackSendsEachPromiseOnce(t *testing.T) {
	topo := lineTopo(t, 5, 1, 1)
	procs, net := makeNet(t, topo, Config{DisablePiggyback: true})
	type key struct {
		from, to ids.ProcessID
		id       ids.Dot
	}
	carried := make(map[key]int)
	sentBy := make(map[ids.ProcessID]uint64) // attached entries over all envelopes
	net.Drop = func(e testnet.Env) bool {
		if m, ok := e.Msg.(*MPromises); ok {
			for _, aw := range m.Attached {
				carried[key{e.From, e.To, aw.ID}]++
			}
			sentBy[e.From] += uint64(len(m.Attached))
		}
		return false
	}
	var cmds []*command.Command
	for site := 0; site < 5; site++ {
		p := procs[at(topo, site, 0)]
		for k := 0; k < 4; k++ {
			c := command.NewPut(p.NextID(), "hot", []byte{byte(site), byte(k)})
			cmds = append(cmds, c)
			net.Submit(p.ID(), c)
		}
	}
	net.Drain(0)
	net.Settle(10, 5*time.Millisecond)

	want := 0
	for id, p := range procs {
		if ex := p.Drain(); len(ex) != len(cmds) {
			t.Fatalf("process %d executed %d of %d commands", id, len(ex), len(cmds))
		}
		for _, c := range cmds {
			if p.cmds[c.ID].attachedMine == 0 {
				continue
			}
			for _, q := range p.shardOthers {
				want++
				if n := carried[key{id, q, c.ID}]; n != 1 {
					t.Errorf("process %d sent its promise for %v to %d %d times, want once", id, c.ID, q, n)
				}
			}
		}
		msgs, attached := p.GossipStats()
		if msgs == 0 || attached*uint64(len(p.shardOthers)) != sentBy[id] {
			t.Errorf("process %d: GossipStats (%d, %d) disagree with the wire", id, msgs, attached)
		}
	}
	if len(carried) != want {
		t.Fatalf("MPromises carried %d (sender, recipient, command) entries, want %d", len(carried), want)
	}
}

// TestCommittedSetTracksInFlight runs 50k commands to execution and
// collection and checks that the tracker's committed-id set stays
// O(in-flight): a few intervals per source, not one entry per command.
func TestCommittedSetTracksInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("50k commands")
	}
	topo := lineTopo(t, 3, 1, 1)
	procs := make(map[ids.ProcessID]*Process)
	var reps []proto.Replica
	for _, pi := range topo.Processes() {
		p := New(pi.ID, topo, Config{RecoveryTimeout: time.Hour})
		procs[pi.ID] = p
		reps = append(reps, p)
	}
	net := testnet.New(reps...)
	const total, wave = 50_000, 500
	for done := 0; done < total; done += wave {
		for i := 0; i < wave; i++ {
			p := procs[at(topo, i%3, 0)]
			net.Submit(p.ID(), command.NewPut(p.NextID(), command.Key(fmt.Sprintf("k%d", i%64)), []byte{1}))
		}
		net.Drain(0)
		net.Settle(3, 5*time.Millisecond)
		for id, p := range procs {
			p.Drain()
			if n := p.tracker.CommittedIntervals(); n > len(procs) {
				t.Fatalf("after %d commands process %d's committed set holds %d intervals, want <= %d (one per source)",
					done+wave, id, n, len(procs))
			}
		}
	}
	for id, p := range procs {
		if len(p.cmds) != 0 || len(p.attachedOwn) != 0 {
			t.Fatalf("process %d kept %d commands and %d attached promises after collection", id, len(p.cmds), len(p.attachedOwn))
		}
		if got := p.store.Applied(); got != total {
			t.Fatalf("process %d applied %d of %d commands", id, got, total)
		}
	}
}

// TestBroadcastSendsNewPromisesOnce pins the sender side: a broadcast
// carries only promises no earlier one carried, sorted by id and at most
// maxAttachedGossip of them (the rest go next, none dropped); a refresh
// re-sends the oldest maxAttachedGossip of the whole set and settles the
// unsent promises it covered.
func TestBroadcastSendsNewPromisesOnce(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	p := New(at(topo, 0, 0), topo, Config{CommitRequestDelay: 100 * time.Millisecond})
	const made = 600
	for i := made; i >= 1; i-- { // newest ids first: sends must still be sorted
		p.addOwnAttached(ids.Dot{Source: ids.ProcessID(1 + i%3), Seq: uint64(i)}, uint64(i))
	}
	broadcast := func() []AttachedWire {
		t.Helper()
		acts := p.broadcastPromises()
		if len(acts) != 1 {
			t.Fatalf("broadcastPromises returned %d actions", len(acts))
		}
		att := acts[0].Msg.(*MPromises).Attached
		for i := 1; i < len(att); i++ {
			if !att[i-1].ID.Less(att[i].ID) {
				t.Fatalf("MPromises.Attached out of order at %d: %v then %v", i, att[i-1].ID, att[i].ID)
			}
		}
		return att
	}
	sent := make(map[ids.Dot]int)
	for _, want := range []int{maxAttachedGossip, maxAttachedGossip, made - 2*maxAttachedGossip, 0} {
		att := broadcast()
		if len(att) != want {
			t.Fatalf("broadcast carried %d attached promises, want %d", len(att), want)
		}
		for _, aw := range att {
			sent[aw.ID]++
		}
	}
	for id, n := range sent {
		if n != 1 {
			t.Fatalf("%v sent %d times", id, n)
		}
	}
	if len(sent) != made {
		t.Fatalf("sent %d distinct promises, want %d", len(sent), made)
	}

	// A refresh re-sends the oldest maxAttachedGossip by id; of two new
	// promises, the one it covered is not sent again, the other is.
	covered, beyond := ids.Dot{Source: 1, Seq: 1000}, ids.Dot{Source: 9, Seq: 1}
	p.addOwnAttached(covered, 1000)
	p.addOwnAttached(beyond, 1001)
	p.now = p.cfg.CommitRequestDelay
	refresh := broadcast()
	if len(refresh) != maxAttachedGossip || refresh[0].ID != p.attachedSorted[0].ID {
		t.Fatalf("refresh carried %d promises from %v, want the %d oldest", len(refresh), refresh[0].ID, maxAttachedGossip)
	}
	if got := broadcast(); len(got) != 1 || got[0].ID != beyond {
		t.Fatalf("after the refresh the next broadcast carried %v, want only %v", got, beyond)
	}
}
