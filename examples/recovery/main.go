// Recovery, in two acts, both on real TCP clusters over loopback.
//
// Act 1 — protocol recovery (in-memory replicas, the paper's crash-stop
// model): a replica crashes with a write it coordinated still in
// flight; the shard leader's recovery protocol (Algorithm 4) takes the
// command over and commits it, and the system keeps serving clients at
// the surviving sites — no reconfiguration needed, f=1 of 5 replicas
// lost.
//
// Act 2 — crash-restart recovery (durable nodes): the same scenario the
// tempo-server -data-dir flag exists for. A three-replica cluster
// persists every applied command to a write-ahead log with periodic
// kvstore snapshots; one replica goes down after acknowledging writes,
// comes back on the same data directory, replays snapshot+WAL, catches
// up from its peers, and serves linearizable reads of everything —
// including writes acknowledged while it was down.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"tempo/client"
	"tempo/internal/cluster"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

func main() {
	protocolRecovery()
	durableRestart()
}

// listenAll binds one loopback listener per process of topo.
func listenAll(topo *topology.Topology) (map[ids.ProcessID]string, map[ids.ProcessID]net.Listener) {
	addrs := make(map[ids.ProcessID]string)
	lns := make(map[ids.ProcessID]net.Listener)
	for _, pi := range topo.Processes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[pi.ID] = ln
		addrs[pi.ID] = ln.Addr().String()
	}
	return addrs, lns
}

// sessionAt opens a client session served by one replica.
func sessionAt(addrs map[ids.ProcessID]string, pid ids.ProcessID) *client.Session {
	sess, err := client.New(client.Config{Addrs: map[ids.ProcessID]string{pid: addrs[pid]}})
	if err != nil {
		log.Fatal(err)
	}
	return sess
}

// protocolRecovery is Act 1: Algorithm 4 over sockets. The paper's five
// EC2 regions run as five loopback replicas behind one shaper, the
// fault injector: cutting every link into N. California leaves it
// unable to hear the acknowledgements of the write it coordinates,
// while its proposal still reaches the others, which is exactly the
// state a coordinator crash strands a command in.
func protocolRecovery() {
	topo := topology.EC2(1)
	addrs, lns := listenAll(topo)
	sh := cluster.NewShaper(nil)
	defer sh.Close()
	nodes := make(map[ids.ProcessID]*cluster.Node)
	for _, pi := range topo.Processes() {
		rep := tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: 5 * time.Millisecond,
			RecoveryTimeout: 20 * time.Millisecond,
		})
		n := cluster.NewNode(pi.ID, rep, addrs)
		n.SetShaper(sh)
		if err := n.StartListener(lns[pi.ID]); err != nil {
			log.Fatal(err)
		}
		nodes[pi.ID] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ireland, ncal := topo.ProcessAt(0, 0), topo.ProcessAt(1, 0)
	canada, saoPaulo := topo.ProcessAt(3, 0), topo.ProcessAt(4, 0)
	fmt.Println("5-replica TCP cluster up (the paper's EC2 regions, f=1)")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	viaCanada := sessionAt(addrs, canada)
	defer viaCanada.Close()
	if err := viaCanada.Put(ctx, "ledger", []byte("v1")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote ledger=v1 via canada")

	// N. California coordinates ledger=v2 but never hears back, then
	// fail-stops with the command in flight.
	for _, pi := range topo.Processes() {
		if pi.ID != ncal {
			sh.CutOneWay(pi.ID, ncal)
		}
	}
	viaNCal := sessionAt(addrs, ncal)
	viaNCal.Do(ctx, command.Op{Kind: command.Put, Key: "ledger", Value: []byte("v2")})
	time.Sleep(100 * time.Millisecond)
	nodes[ncal].Close()
	delete(nodes, ncal)
	viaNCal.Close()
	fmt.Println("n-california crashed with ledger=v2 in flight")

	// Ireland, the shard leader by default (rank 1), recovers the
	// stranded command with the timestamps proposed for it (Properties
	// 1 and 4 of the paper), and it executes at every survivor.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[ireland].Stats().Recovered == 0 {
		if time.Now().After(deadline) {
			log.Fatal("the leader recovered no command")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("ireland recovered %d command(s)\n", nodes[ireland].Stats().Recovered)

	// The system remains available for reads and writes.
	viaSaoPaulo := sessionAt(addrs, saoPaulo)
	defer viaSaoPaulo.Close()
	v, err := viaSaoPaulo.Get(ctx, "ledger")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crash+recovery: ledger=%s (read via sao-paulo)\n", v)
	if err := viaCanada.Put(ctx, "ledger", []byte("v3")); err != nil {
		log.Fatal(err)
	}
	if v, err = viaSaoPaulo.Get(ctx, "ledger"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("still serving: ledger=%s (written via canada, read via sao-paulo)\n", v)
}

// durableRestart is Act 2: a real TCP cluster whose nodes persist to
// data directories (the in-process equivalent of running each replica
// as `tempo-server -data-dir ...`), with one replica taken down and
// restarted in place.
func durableRestart() {
	const r = 3
	names := make([]string, r)
	rtt := make([][]time.Duration, r)
	for i := range names {
		names[i] = fmt.Sprintf("site-%d", i)
		rtt[i] = make([]time.Duration, r)
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
	if err != nil {
		log.Fatal(err)
	}

	base, err := os.MkdirTemp("", "tempo-recovery-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	addrs, lns := listenAll(topo)
	startNode := func(id ids.ProcessID, ln net.Listener) *cluster.Node {
		rep := tempo.New(id, topo, tempo.Config{PromiseInterval: 2 * time.Millisecond})
		n := cluster.NewNode(id, rep, addrs)
		if err := n.SetDurable(cluster.DurableConfig{
			Dir: filepath.Join(base, fmt.Sprintf("node-%d", id)),
		}); err != nil {
			log.Fatal(err)
		}
		if ln != nil {
			err = n.StartListener(ln)
		} else {
			err = n.Start()
		}
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	nodes := make(map[ids.ProcessID]*cluster.Node)
	for _, pi := range topo.Processes() {
		nodes[pi.ID] = startNode(pi.ID, lns[pi.ID])
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	fmt.Println("\ndurable TCP cluster up (3 replicas, WAL+snapshots)")

	ctx := context.Background()
	sess, err := client.Dial(addrs[1], addrs[2], addrs[3])
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	if err := sess.Put(ctx, "account", []byte("balance=100")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote account=balance=100")
	time.Sleep(50 * time.Millisecond) // let replica 3 apply+log the write

	// Replica 3 goes down (a SIGKILL'd tempo-server; see
	// docs/OPERATIONS.md for the runbook with real processes).
	nodes[3].Close()
	fmt.Println("replica 3 down")

	// The cluster still serves (f=1): a write lands during the outage.
	if err := sess.Put(ctx, "account", []byte("balance=250")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote account=balance=250 during the outage")

	// Replica 3 restarts on its data directory: WAL replay restores the
	// pre-crash state, the peer sync fetches what it missed, and the
	// node serves again.
	nodes[3] = startNode(3, nil)
	fmt.Println("replica 3 restarted on its data directory")

	probe := sessionAt(addrs, 3)
	defer probe.Close()
	v, err := probe.Get(ctx, "account")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restart: account=%s (read via the restarted replica)\n", v)
}
