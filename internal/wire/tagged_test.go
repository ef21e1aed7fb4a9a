package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(hdr[:], FrameResponse, 0xdeadbeefcafe, 12345)
	kind, tag, n, err := ParseFrameHeader(hdr[:])
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameResponse || tag != 0xdeadbeefcafe || n != 12345 {
		t.Fatalf("ParseFrameHeader = kind %d tag %#x n %d", kind, tag, n)
	}
}

func TestFrameHeaderRejections(t *testing.T) {
	good := func() []byte {
		var hdr [FrameHeaderSize]byte
		PutFrameHeader(hdr[:], FrameRequest, 7, 10)
		return hdr[:]
	}
	cases := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"bad magic", func(h []byte) { h[0] = 'x' }, ErrBadFrameHeader},
		{"bad version", func(h []byte) { h[2] = 99 }, ErrBadFrameHeader},
		{"bad kind", func(h []byte) { h[3] = 9 }, ErrBadFrameKind},
		{"oversize", func(h []byte) { h[4], h[5], h[6], h[7] = 0xff, 0xff, 0xff, 0xff }, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		h := good()
		tc.mutate(h)
		if _, _, _, err := ParseFrameHeader(h); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, _, _, err := ParseFrameHeader(good()[:8]); !errors.Is(err, ErrBadFrameHeader) {
		t.Errorf("short header: err = %v", err)
	}
}

func TestFrameWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payloads := [][]byte{[]byte(`{"id":1}`), []byte(``), bytes.Repeat([]byte("x"), 100000)}
	for i, p := range payloads {
		if err := fw.WriteFrame(FrameRequest, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, p := range payloads {
		kind, tag, got, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind != FrameRequest || tag != uint64(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: kind %d tag %d len %d", i, kind, tag, len(got))
		}
	}
	if err := fw.WriteFrame(FrameRequest, 1, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write err = %v", err)
	}
}

// startTaggedServer is startServer, but it also exposes the listen
// address for tests that speak the protocol by hand.
func startTaggedServer(t *testing.T, nFileSets int) (*Client, string) {
	t.Helper()
	disk := sharedisk.NewStore(0)
	for i := 0; i < nFileSets; i++ {
		if err := disk.CreateFileSet(fmt.Sprintf("fs%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := liveDefaultTestConfig()
	cl, err := live.NewCluster(cfg, disk, map[int]float64{0: 1, 1: 3, 2: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Stop()
	})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, addr
}

func liveDefaultTestConfig() live.Config {
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour // no background tuning in protocol tests
	cfg.OpCost = 0
	return cfg
}

// taggedConn dials addr, performs the hello upgrade by hand, and returns
// the raw framing primitives — the lowest-level tagged client, so the
// test exercises the protocol rather than any sdk convenience.
func taggedConn(t *testing.T, addr string) (net.Conn, *FrameWriter, *FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := json.NewEncoder(conn).Encode(HelloRequest()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || resp.Proto != TaggedProtoV1 {
		t.Fatalf("hello reply = %+v", resp)
	}
	return conn, NewFrameWriter(conn), NewFrameReader(br)
}

func TestHelloUpgradeAndPipelining(t *testing.T) {
	c, addr := startTaggedServer(t, 1)
	c.Close()

	_, fw, fr := taggedConn(t, addr)
	// Send N requests back to back without reading a single response —
	// only a pipelined server can answer them all.
	const n = 32
	for i := 1; i <= n; i++ {
		req := Request{ID: uint64(i), Op: OpStat, FileSet: "fs00", Path: "/missing"}
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteFrame(FrameRequest, uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		kind, tag, payload, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind != FrameResponse {
			t.Fatalf("frame kind = %d", kind)
		}
		var resp Response
		if err := json.Unmarshal(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Err, "no such path") {
			t.Fatalf("tag %d: err = %q", tag, resp.Err)
		}
		if seen[tag] {
			t.Fatalf("tag %d answered twice", tag)
		}
		seen[tag] = true
	}
	if len(seen) != n {
		t.Fatalf("answered %d distinct tags, want %d", len(seen), n)
	}
}

// TestServerRefusesOversizedFrame: a daemon keeps the default
// MaxFramePayload bound. A request frame above it drops that connection
// (counted as a bad frame) without reaching a handler, and the server
// keeps serving new connections.
func TestServerRefusesOversizedFrame(t *testing.T) {
	c, addr := startTaggedServer(t, 1)
	big, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	big.SetTimeout(30 * time.Second)
	snap := make([]byte, MaxFramePayload) // base64 + JSON push the frame past the bound
	_, err = big.ShipSnapshot(1, snap)
	if !errors.Is(err, ErrConnClosed) && !errors.Is(err, ErrSendFailed) {
		t.Fatalf("oversized frame err = %v, want the connection dropped", err)
	}
	ws, _, err := c.WireStats()
	if err != nil {
		t.Fatalf("server stopped serving after an oversized frame: %v", err)
	}
	if ws[CtrBadFrames] < 1 {
		t.Fatalf("oversized frame not counted as bad: %v", ws)
	}
}

func TestHelloMustBeFirst(t *testing.T) {
	c, addr := startTaggedServer(t, 1)
	c.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	br := bufio.NewReader(conn)
	readResp := func() Response {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if err := enc.Encode(Request{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(); resp.Err != "" {
		t.Fatalf("ping = %+v", resp)
	}
	if err := enc.Encode(Request{ID: 2, Op: OpHello, Proto: TaggedProtoV1}); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(); !strings.Contains(resp.Err, "first request") {
		t.Fatalf("late hello = %+v", resp)
	}
	// The rejected hello must leave the connection in working line mode.
	if err := enc.Encode(Request{ID: 3, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(); resp.Err != "" {
		t.Fatalf("ping after rejected hello = %+v", resp)
	}
}

func TestHelloRejectsUnknownVersion(t *testing.T) {
	c, addr := startTaggedServer(t, 1)
	c.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(Request{ID: 1, Op: OpHello, Proto: 42}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "unsupported") {
		t.Fatalf("hello v42 = %+v", resp)
	}
}

func TestGarbagePayloadAfterUpgradeKeepsConnection(t *testing.T) {
	c, addr := startTaggedServer(t, 1)
	c.Close()

	_, fw, fr := taggedConn(t, addr)
	// Intact framing, broken JSON: the server answers the tag with an
	// error and keeps serving.
	if err := fw.WriteFrame(FrameRequest, 7, []byte("{nonsense")); err != nil {
		t.Fatal(err)
	}
	kind, tag, payload, err := fr.ReadFrame()
	if err != nil || kind != FrameResponse || tag != 7 {
		t.Fatalf("ReadFrame = kind %d tag %d err %v", kind, tag, err)
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "bad frame") {
		t.Fatalf("garbage payload resp = %+v", resp)
	}
	// Healthy request still served on the same connection.
	good, err := json.Marshal(Request{ID: 8, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(FrameRequest, 8, good); err != nil {
		t.Fatal(err)
	}
	if _, tag, _, err := fr.ReadFrame(); err != nil || tag != 8 {
		t.Fatalf("ping after garbage: tag %d err %v", tag, err)
	}
}

func TestBatchOverWire(t *testing.T) {
	c, _ := startServer(t, 2)
	items := []BatchItem{
		{Op: OpCreate, Path: "/a", Record: &sharedisk.Record{Size: 1}},
		{Op: OpCreate, Path: "/b", Record: &sharedisk.Record{Size: 2}},
		{Op: OpStat, Path: "/a"},
		{Op: OpCreate, FileSet: "fs01", Path: "/c", Record: &sharedisk.Record{Size: 3}},
		{Op: OpStat, Path: "/missing"},
		{Op: OpRemove, Path: "/b"},
	}
	results, err := c.Batch("fs00", true, items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != "" || results[1].Err != "" || results[3].Err != "" || results[5].Err != "" {
		t.Fatalf("batch writes failed: %+v", results)
	}
	if results[2].Err != "" || results[2].Record == nil || results[2].Record.Size != 1 {
		t.Fatalf("batch stat = %+v", results[2])
	}
	if results[4].Err == "" || !strings.Contains(results[4].Err, "no such path") {
		t.Fatalf("batch stat-miss = %+v", results[4])
	}
	// Cross-file-set item landed in its own file set.
	if rec, err := c.Stat("fs01", "/c"); err != nil || rec.Size != 3 {
		t.Fatalf("cross-fs item: %+v, %v", rec, err)
	}
	// The removed record is gone.
	if _, err := c.Stat("fs00", "/b"); err == nil {
		t.Fatal("removed record still present")
	}
}

func TestBatchValidation(t *testing.T) {
	c, _ := startServer(t, 1)
	if _, err := c.Batch("fs00", false, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.Batch("fs00", false, []BatchItem{{Op: OpLock, Path: "/a"}}); err == nil ||
		!strings.Contains(err.Error(), "not batchable") {
		t.Fatalf("lock in batch = %v", err)
	}
	if _, err := c.Batch("", false, []BatchItem{{Op: OpStat, Path: "/a"}}); err == nil ||
		!strings.Contains(err.Error(), "file set") {
		t.Fatalf("file-set-less batch = %v", err)
	}
	over := make([]BatchItem, MaxBatchItems+1)
	for i := range over {
		over[i] = BatchItem{Op: OpStat, Path: "/a"}
	}
	if _, err := c.Batch("fs00", false, over); err == nil ||
		!strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("oversized batch = %v", err)
	}
}

func TestPingOp(t *testing.T) {
	c, _ := startServer(t, 0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestTaggedAndLineClientsCoexist hammers the upgraded path with the race
// detector: raw tagged connections and the typed Client share the server
// while a line-mode peer (a raw JSON connection — the netcat door) works
// alongside.
func TestTaggedAndLineClientsCoexist(t *testing.T) {
	c, addr := startTaggedServer(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, fw, fr := taggedConn(t, addr)
			for i := 1; i <= 20; i++ {
				payload, err := json.Marshal(Request{ID: uint64(i), Op: OpPing})
				if err != nil {
					t.Error(err)
					return
				}
				if err := fw.WriteFrame(FrameRequest, uint64(i), payload); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := fr.ReadFrame(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := c.Ping(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	line, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer line.Close()
	enc := json.NewEncoder(line)
	br := bufio.NewReader(line)
	for i := 1; i <= 20; i++ {
		if err := enc.Encode(Request{ID: uint64(i), Op: OpPing}); err != nil {
			t.Fatal(err)
		}
		reply, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" || resp.ID != uint64(i) {
			t.Fatalf("line ping %d = %+v", i, resp)
		}
	}
	wg.Wait()
}
