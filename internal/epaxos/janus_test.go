package epaxos

import (
	"fmt"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/testnet"
	"tempo/internal/topology"
)

// TestJanusCrossShardTransaction runs the paper's Janus* baseline (§6):
// Janus generalizes EPaxos to partial replication, and the paper's
// improved variant is multi-shard Atlas with non-genuine commit
// broadcast — dependency graphs reference other shards' commands, so
// every commit goes to every process. It is built here exactly as
// bench.JanusProto builds it, and a transaction spanning both shards
// must execute at every process of both shards.
func TestJanusCrossShardTransaction(t *testing.T) {
	// 3 sites, 2 shards, every site replicating both shards (the §6.4
	// geometry scaled down).
	names := []string{"a", "b", "c"}
	rtt := make([][]time.Duration, 3)
	for i := range rtt {
		rtt[i] = make([]time.Duration, 3)
		for j := range rtt[i] {
			if i != j {
				rtt[i][j] = 2 * time.Millisecond
			}
		}
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	var reps []proto.Replica
	for _, pi := range topo.Processes() {
		reps = append(reps, New(pi.ID, topo, Config{Variant: VariantAtlas, NonGenuineCommit: true}))
	}
	net := testnet.New(reps...)

	// A transaction spanning both shards.
	var k0, k1 command.Key
	for i := 0; k0 == "" || k1 == ""; i++ {
		k := command.Key(fmt.Sprintf("key%d", i))
		if topo.ShardOf(k) == 0 && k0 == "" {
			k0 = k
		} else if topo.ShardOf(k) == 1 && k1 == "" {
			k1 = k
		}
	}
	submitter := topo.ProcessAt(0, 0)
	cmd := command.New(ids.Dot{Source: submitter, Seq: 1},
		command.Op{Kind: command.Put, Key: k0, Value: []byte("v")},
		command.Op{Kind: command.Put, Key: k1, Value: []byte("v")},
	)
	net.Submit(submitter, cmd)
	net.Drain(0)

	executed := net.DrainExecuted()
	// Every process of both shards executes it (6 processes).
	if len(executed) != 6 {
		t.Fatalf("executed at %d processes, want 6", len(executed))
	}
}
