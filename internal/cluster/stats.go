package cluster

import "tempo/internal/metrics"

// nodeStats are the serving counters a node maintains on its hot paths
// (metrics.Counter: lock-free, incremented where the work happens,
// snapshotted by Stats for the -metrics-addr endpoint).
type nodeStats struct {
	submittedCmds  metrics.Counter // commands handed to the replica
	submittedOps   metrics.Counter // client ops inside those commands
	completedReqs  metrics.Counter // client requests answered with results
	appliedCmds    metrics.Counter // commands applied to the state machine
	crossSubmitted metrics.Counter // cross-shard commands submitted here
	watches        metrics.Counter // watch registrations served
	batchFlushes   metrics.Counter // submit batches flushed
	batchedOps     metrics.Counter // client ops that rode those batches
}

// Stats is a point-in-time snapshot of a node's serving counters,
// exposed through the tempo-server metrics endpoint.
type Stats struct {
	// Shard is the shard this node replicates.
	Shard uint32 `json:"shard"`
	// SubmittedCmds counts commands handed to the replica.
	SubmittedCmds uint64 `json:"submitted_cmds"`
	// SubmittedOps counts client operations inside those commands.
	SubmittedOps uint64 `json:"submitted_ops"`
	// CompletedReqs counts client requests answered with results.
	CompletedReqs uint64 `json:"completed_reqs"`
	// AppliedCmds counts commands applied to the state machine.
	AppliedCmds uint64 `json:"applied_cmds"`
	// CrossSubmitted counts cross-shard commands submitted at this node.
	CrossSubmitted uint64 `json:"cross_submitted"`
	// Watches counts cross-shard watch registrations served.
	Watches uint64 `json:"watches"`
	// BatchFlushes counts submit batches flushed.
	BatchFlushes uint64 `json:"batch_flushes"`
	// BatchedOps counts client operations that rode those batches; the
	// mean batch size is BatchedOps/BatchFlushes.
	BatchedOps uint64 `json:"batched_ops"`
	// ExecQueue is the executor delivery queue depth at snapshot time.
	ExecQueue int `json:"exec_queue"`
	// Pending is the number of commands awaiting execution with live
	// client waiters.
	Pending int `json:"pending"`
	// FastPath, SlowPath and Recovered count the commands this replica
	// decided as coordinator on the fast path, on the slow path, and
	// through recovery (engines exposing protocolCounters only).
	FastPath  uint64 `json:"fast_path"`
	SlowPath  uint64 `json:"slow_path"`
	Recovered uint64 `json:"recovered"`
	// PromisesSent counts MPromises broadcasts (one per gossip round,
	// whatever the number of shard peers) and AttachedSent the attached
	// promises they carried.
	PromisesSent uint64 `json:"promises_sent"`
	AttachedSent uint64 `json:"attached_sent"`
}

// protocolCounters is the optional engine interface behind the protocol
// fields of Stats; tempo.Process implements it. Its methods read state
// owned by the protocol lock.
type protocolCounters interface {
	Stats() (fast, slow, recovered uint64)
	GossipStats() (msgs, attached uint64)
}

// Stats snapshots the node's serving counters.
func (n *Node) Stats() Stats {
	n.execMu.Lock()
	execQ := len(n.execQ)
	n.execMu.Unlock()
	st := Stats{
		Shard:          uint32(n.shard),
		SubmittedCmds:  n.stat.submittedCmds.Load(),
		SubmittedOps:   n.stat.submittedOps.Load(),
		CompletedReqs:  n.stat.completedReqs.Load(),
		AppliedCmds:    n.stat.appliedCmds.Load(),
		CrossSubmitted: n.stat.crossSubmitted.Load(),
		Watches:        n.stat.watches.Load(),
		BatchFlushes:   n.stat.batchFlushes.Load(),
		BatchedOps:     n.stat.batchedOps.Load(),
		ExecQueue:      execQ,
		Pending:        n.pendingCmds(),
	}
	if pc, ok := n.rep.(protocolCounters); ok {
		n.mu.Lock()
		st.FastPath, st.SlowPath, st.Recovered = pc.Stats()
		st.PromisesSent, st.AttachedSent = pc.GossipStats()
		n.mu.Unlock()
	}
	return st
}
