package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// startCluster boots r Tempo nodes on loopback and returns them with
// their client addresses.
func startCluster(t *testing.T, r, f int) ([]*Node, map[ids.ProcessID]string, *topology.Topology) {
	return startClusterWith(t, r, f, nil)
}

// testClient is a minimal synchronous client speaking the binary client
// protocol, one request in flight (the top-level client package imports
// this one, so the package's own tests cannot use it).
type testClient struct {
	conn    net.Conn
	br      *bufio.Reader
	scratch []byte
	buf     []byte
	next    uint64
}

// dialClient opens a client connection to addr.
func dialClient(addr string) (*testClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(ClientMagic2[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return &testClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *testClient) Close() error { return c.conn.Close() }

// Execute submits ops as one plain request (10 s deadline) and returns
// the serving shard's results.
func (c *testClient) Execute(ops ...command.Op) ([][]byte, error) {
	c.next++
	frame := AppendSubmitRequest(nil, &c.scratch, c.next, 10*time.Second, ops)
	if _, err := c.conn.Write(frame); err != nil {
		return nil, err
	}
	body, err := ReadFrame(c.br, MaxClientFrameBytes, &c.buf)
	if err != nil {
		return nil, err
	}
	reqID, werr, values, err := DecodeClientReply(body)
	if err != nil {
		return nil, err
	}
	if reqID != c.next {
		return nil, fmt.Errorf("reply for request %d, want %d", reqID, c.next)
	}
	if werr.Code != command.ErrCodeNone {
		return nil, errors.New(werr.Msg)
	}
	out := make([][]byte, len(values))
	for i, v := range values {
		if v != nil {
			out[i] = append([]byte{}, v...)
		}
	}
	return out, nil
}

// Put writes a key.
func (c *testClient) Put(key string, value []byte) error {
	_, err := c.Execute(command.Op{Kind: command.Put, Key: command.Key(key), Value: value})
	return err
}

// Get reads a key (nil when absent).
func (c *testClient) Get(key string) ([]byte, error) {
	vals, err := c.Execute(command.Op{Kind: command.Get, Key: command.Key(key)})
	if err != nil || len(vals) == 0 {
		return nil, err
	}
	return vals[0], nil
}

func TestLoopbackPutGet(t *testing.T) {
	nodes, addrs, topo := startCluster(t, 3, 1)
	_ = nodes
	c, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("got %q", v)
	}
}

func TestLoopbackCrossNodeVisibility(t *testing.T) {
	_, addrs, topo := startCluster(t, 3, 1)
	c0, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if err := c0.Put("shared", []byte("from-node-0")); err != nil {
		t.Fatal(err)
	}
	c2, err := dialClient(addrs[topo.ProcessAt(2, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Linearizability: the read at another node sees the earlier write.
	v, err := c2.Get("shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("from-node-0")) {
		t.Fatalf("read at node 2 = %q", v)
	}
}

// TestStatsExportsProtocolCounters checks that a Tempo node's Stats
// carry the engine's path and gossip counters.
func TestStatsExportsProtocolCounters(t *testing.T) {
	nodes, addrs, topo := startCluster(t, 3, 1)
	c, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const puts = 5
	for i := 0; i < puts; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := nodes[0].Stats()
	if st.FastPath+st.SlowPath+st.Recovered < puts {
		t.Fatalf("coordinator decided %d+%d+%d commands, want >= %d", st.FastPath, st.SlowPath, st.Recovered, puts)
	}
	// Every node gossips, and the coordinator proposed for every put, so
	// each of its attached promises rides at least one MPromises.
	gossiped := func(i int, st Stats) bool {
		return st.PromisesSent > 0 && (i > 0 || st.AttachedSent >= puts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, n := range nodes {
		for !gossiped(i, n.Stats()) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if st := n.Stats(); !gossiped(i, st) {
			t.Fatalf("node %d: %d MPromises carrying %d attached promises", i, st.PromisesSent, st.AttachedSent)
		}
	}
}

func TestLoopbackConcurrentClients(t *testing.T) {
	_, addrs, topo := startCluster(t, 3, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for site := 0; site < 3; site++ {
		addr := addrs[topo.ProcessAt(ids.SiteID(site), 0)]
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(addr string, who int) {
				defer wg.Done()
				c, err := dialClient(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for i := 0; i < 5; i++ {
					if err := c.Put("contended", []byte{byte(who), byte(i)}); err != nil {
						errs <- err
						return
					}
				}
			}(addr, site*2+k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All replicas converge to the same final value.
	var vals [][]byte
	for site := 0; site < 3; site++ {
		c, err := dialClient(addrs[topo.ProcessAt(ids.SiteID(site), 0)])
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Get("contended")
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	if !bytes.Equal(vals[0], vals[1]) || !bytes.Equal(vals[1], vals[2]) {
		t.Fatalf("replicas diverged: %v", vals)
	}
}

func TestLoopbackFiveNodesF2(t *testing.T) {
	_, addrs, topo := startCluster(t, 5, 2)
	c, err := dialClient(addrs[topo.ProcessAt(0, 0)])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.Get("k7")
	if err != nil || len(v) != 1 || v[0] != 7 {
		t.Fatalf("k7 = %v, %v", v, err)
	}
}

// TestWriteBatchSplitsFrames pins the frame-budget behaviour of the peer
// framer: a batch whose encoding exceeds the frame limit is split across
// frames (each acceptable to a receiver), and a single message that can
// never fit is dropped rather than wedging the link forever.
func TestWriteBatchSplitsFrames(t *testing.T) {
	mkStable := func(seq uint64) groupMsg {
		return groupMsg{from: 7, to: 2, msg: &tempo.MStable{ID: ids.Dot{Source: 1, Seq: seq}, Shard: 0}}
	}
	big := groupMsg{from: 7, to: 2, msg: &tempo.MPayload{
		ID:  ids.Dot{Source: 1, Seq: 99},
		Cmd: command.NewPut(ids.Dot{Source: 1, Seq: 99}, "k", bytes.Repeat([]byte{7}, 200)),
	}}
	var batch []groupMsg
	for seq := uint64(1); seq <= 20; seq++ { // ~20 small messages: > one 64B frame
		batch = append(batch, mkStable(seq))
	}
	batch = append(batch[:10:10], append([]groupMsg{big}, batch[10:]...)...)

	g := &Group{frameLimit: 64}
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	var head, body []byte
	if err := g.writeGroupBatch(bw, batch, &head, &body); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Parse the stream as servePeer would and collect the messages.
	br := bufio.NewReader(&out)
	var got []proto.Message
	frames := 0
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			break
		}
		if size > g.frameLimit {
			t.Fatalf("frame body %d exceeds budget %d", size, g.frameLimit)
		}
		frames++
		b := make([]byte, size)
		if _, err := io.ReadFull(br, b); err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			var from, to uint64
			if from, b, err = proto.ReadUvarint(b); err != nil || from != 7 {
				t.Fatalf("record from = %d, %v", from, err)
			}
			if to, b, err = proto.ReadUvarint(b); err != nil || to != 2 {
				t.Fatalf("record to = %d, %v", to, err)
			}
			var msg proto.Message
			if msg, b, err = proto.DecodeMessage(b); err != nil {
				t.Fatal(err)
			}
			got = append(got, msg)
		}
	}
	if frames < 2 {
		t.Fatalf("expected the batch split across frames, got %d", frames)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d messages, want the 20 small ones", len(got))
	}
	for i, m := range got {
		ms, ok := m.(*tempo.MStable)
		if !ok || ms.ID.Seq != uint64(i+1) {
			t.Fatalf("message %d = %+v: oversized message not dropped or order lost", i, m)
		}
	}
}

// TestEmptySubmitRejected pins the rejection of an empty command: the
// request gets ErrCodeBadRequest, and the connection stays usable.
func TestEmptySubmitRejected(t *testing.T) {
	_, addrs, topo := startCluster(t, 3, 1)
	conn, br := dialV2(t, addrs[topo.ProcessAt(0, 0)])
	var scratch []byte
	if _, err := conn.Write(AppendSubmitRequest(nil, &scratch, 1, time.Second, nil)); err != nil {
		t.Fatal(err)
	}
	if reqID, werr, _ := readReply(t, br); reqID != 1 || werr.Code != command.ErrCodeBadRequest {
		t.Fatalf("empty submit: request %d code %d (%q), want request 1 ErrCodeBadRequest", reqID, werr.Code, werr.Msg)
	}
	frame := AppendSubmitRequest(nil, &scratch, 2, 10*time.Second, []command.Op{{Kind: command.Put, Key: "k", Value: []byte("v")}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if reqID, werr, _ := readReply(t, br); reqID != 2 || werr.Code != command.ErrCodeNone {
		t.Fatalf("put after the rejection: request %d code %d (%q)", reqID, werr.Code, werr.Msg)
	}
}

// TestNodeServesOnlyCurrentProtocols pins the single serving path of a
// standalone node (NewNode + StartListener, a one-node group): the
// retired version-1 client and node-link magics and gob streams are
// closed on sight, a client session on the same listener keeps
// working, and Links still reports each peer's liveness and outbound
// queue depth.
func TestNodeServesOnlyCurrentProtocols(t *testing.T) {
	nodes, addrs, topo := startCluster(t, 3, 1)
	addr := addrs[topo.ProcessAt(0, 0)]
	retired := map[string][]byte{
		"client v1":      {0xFF, 'T', 'C', 1, 0},
		"node peer link": {0xFF, 'T', 'P', 1, 0},
		// A gob stream opens with a small message length; this is the
		// encoding of a one-field struct type definition.
		"gob": {0x1f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x05, 'h', 'e', 'l', 'l', 'o'},
	}
	for name, prefix := range retired {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(prefix); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 16))
		var ne net.Error
		if err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: read = %d bytes, %v; want the server to close the connection", name, n, err)
		}
		conn.Close()
	}

	c, err := dialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := c.Get("k4"); err != nil || string(v) != "v" {
		t.Fatalf("Get(k4) = %q, %v", v, err)
	}

	// Each peer shows up with its inbound liveness stamp and the queue
	// depth of the link toward it; the metrics endpoint serves the same
	// JSON fields as before.
	deadline := time.Now().Add(5 * time.Second)
	for {
		links := nodes[0].Links()
		ok := len(links) == 2
		for _, pid := range []ids.ProcessID{topo.ProcessAt(1, 0), topo.ProcessAt(2, 0)} {
			ok = ok && links[pid].LastRecvUnixMS > 0
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("links = %+v, want both peers with a liveness stamp", links)
		}
		time.Sleep(5 * time.Millisecond)
	}
	depth := nodes[0].group.Links()
	for pid, ls := range nodes[0].Links() {
		if _, open := depth[addrs[pid]]; !open {
			t.Fatalf("peer %d listed but no link open toward %s", pid, addrs[pid])
		}
		if ls.QueueDepth < 0 {
			t.Fatalf("peer %d queue depth %d", pid, ls.QueueDepth)
		}
	}
	js, err := json.Marshal(LinkState{})
	if err != nil || string(js) != `{"last_recv_unix_ms":0,"queue_depth":0}` {
		t.Fatalf("LinkState JSON = %s, %v", js, err)
	}
}

// TestPeerLinkRedialsAfterPeerRestart pins the restart case of the peer
// writer: once the remote end of a link closed, the next message must
// reach the peer's new listener on the same address, not vanish into
// the dead socket (the protocol sends some messages, like a proposal
// acknowledgement, exactly once).
func TestPeerLinkRedialsAfterPeerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	got := make(chan uint64, 2) // one per message sent
	// serve accepts peer links on ln and reports each MStable's seq; it
	// returns the accepted connections so the test can drop them.
	serve := func(ln net.Listener) chan net.Conn {
		// Buffered so the accept loop never waits on the test; only the
		// first listener's connection is ever taken.
		conns := make(chan net.Conn, 4)
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				conns <- c
				go func() {
					br := bufio.NewReader(c)
					var magic [4]byte
					if _, err := io.ReadFull(br, magic[:]); err != nil || magic != GroupMagic {
						return
					}
					var buf []byte
					for {
						b, err := ReadFrame(br, defaultMaxFrameBytes, &buf)
						if err != nil {
							return
						}
						for len(b) > 0 {
							if _, b, err = proto.ReadUvarint(b); err != nil {
								return
							}
							if _, b, err = proto.ReadUvarint(b); err != nil {
								return
							}
							var msg proto.Message
							if msg, b, err = proto.DecodeMessage(b); err != nil {
								return
							}
							got <- msg.(*tempo.MStable).ID.Seq
						}
					}
				}()
			}
		}()
		return conns
	}
	expect := func(seq uint64) {
		t.Helper()
		select {
		case s := <-got:
			if s != seq {
				t.Fatalf("peer received seq %d, want %d", s, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never reached the peer", seq)
		}
	}
	send := func(g *Group, seq uint64) {
		g.Send(1, 2, &tempo.MStable{ID: ids.Dot{Source: 1, Seq: seq}})
	}

	g := NewGroup(map[ids.ProcessID]string{2: addr}, map[ids.ProcessID]ids.ShardID{1: 0, 2: 0})
	defer g.Close()
	conns := serve(ln)
	send(g, 1)
	expect(1)

	// The peer restarts on the same address.
	ln.Close()
	(<-conns).Close()
	time.Sleep(100 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer ln.Close()
	serve(ln)
	send(g, 2)
	expect(2)
}
