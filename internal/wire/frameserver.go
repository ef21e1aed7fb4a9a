package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"sync"
)

// FrameServer drives one server-side connection through the protocol: it
// starts in line mode (one JSON request per line), answers an OpHello by
// upgrading the connection to the tagged-frame protocol, and from then on
// demultiplexes frames — each request runs on its own goroutine and its
// response carries the request's tag, so completions are out of order.
//
// It is the protocol loop shared by wire.Server, the sdk gateway, and the
// replica receiver: Handle is the only required hook and is called
// concurrently.
type FrameServer struct {
	// Handle serves one decoded request; called concurrently.
	Handle func(Request) Response
	// MaxPayload bounds one request frame's payload (0 = MaxFramePayload).
	// A larger frame drops the connection.
	MaxPayload int
	// OnBadFrame, if set, is called once per undecodable frame (accounting).
	OnBadFrame func()
	// OnInflight, if set, observes admissions (+1) and completions (-1) —
	// the hook behind in-flight gauges and pipeline-depth histograms.
	OnInflight func(delta int64)
}

// Line-mode limits: lines above maxLineBytes lose framing and drop the
// connection. Line mode is the netcat door and carries the hello, so its
// bound stays small whatever the server's frame limit.
const (
	lineBufBytes = 64 << 10
	maxLineBytes = 1 << 20
)

var errLineTooLong = errors.New("wire: line exceeds 1MiB")

// Serve reads the connection until it closes, first in line mode and —
// after a successful hello — in tagged mode. It blocks until every
// in-flight request has completed.
func (f *FrameServer) Serve(conn net.Conn) {
	br := bufio.NewReaderSize(conn, lineBufBytes)
	var writeMu sync.Mutex
	enc := json.NewEncoder(conn)
	send := func(resp Response) {
		writeMu.Lock()
		defer writeMu.Unlock()
		_ = enc.Encode(resp) // write errors surface as reader EOF
	}
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	first := true
	for {
		line, err := readLine(br)
		if err != nil {
			return // EOF, connection error, or oversized line
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			f.badFrame()
			send(Response{Err: "bad frame: " + err.Error()})
			continue
		}
		switch req.Op {
		case OpHello:
			// Negotiation must be the first exchange: a hello after other
			// requests could interleave line responses with frames.
			resp := Response{ID: req.ID}
			switch {
			case !first:
				resp.Err = "wire: hello must be the first request on a connection"
			case req.Proto != TaggedProtoV1:
				resp.Err = "wire: unsupported tagged protocol version"
			default:
				resp.Proto = TaggedProtoV1
				// Grant the intersection of offered and supported capability
				// bits (trace context, ...). Old clients offer none and old
				// servers grant none; either way both sides degrade cleanly.
				resp.Caps = req.Caps & SupportedCaps
			}
			send(resp)
			if resp.Err == "" {
				f.serveTagged(conn, br, &reqWG)
				return
			}
		default:
			reqWG.Add(1)
			f.inflight(1)
			go func(req Request) {
				defer reqWG.Done()
				send(f.Handle(req))
				f.inflight(-1)
			}(req)
		}
		first = false
	}
}

// serveTagged is the per-connection demux loop after the hello upgrade:
// read a frame, decode, dispatch on a goroutine, answer under the tag the
// request carried. Any framing error drops the connection — once byte
// boundaries are lost there is nothing to resynchronize on.
func (f *FrameServer) serveTagged(conn net.Conn, br *bufio.Reader, reqWG *sync.WaitGroup) {
	var writeMu sync.Mutex
	var encBuf []byte // reused response encode buffer, guarded by writeMu
	bw := bufio.NewWriter(conn)
	fw := NewFrameWriter(bw)
	sendTagged := func(tag uint64, resp Response) {
		writeMu.Lock()
		defer writeMu.Unlock()
		payload, ok := AppendResponse(encBuf[:0], &resp)
		if ok {
			encBuf = payload
		} else {
			var err error
			payload, err = json.Marshal(resp)
			if err != nil {
				payload = []byte(`{"err":"wire: unencodable response"}`)
			}
		}
		if fw.WriteFrame(FrameResponse, tag, payload) == nil {
			_ = bw.Flush()
		}
	}
	fr := NewFrameReader(br)
	fr.max = f.MaxPayload
	var dec Decoder
	var req Request // reused across frames so the fast decoder can reuse its strings
	for {
		kind, tag, payload, err := fr.ReadFrame()
		if err != nil {
			if errors.Is(err, ErrBadFrameHeader) || errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadFrameKind) {
				f.badFrame()
			}
			return
		}
		if kind != FrameRequest {
			f.badFrame()
			return
		}
		if !dec.DecodeRequest(payload, &req) {
			req = Request{}
			if err := json.Unmarshal(payload, &req); err != nil {
				// Framing is intact (the length field delimited the payload);
				// answer the tag and keep the connection.
				f.badFrame()
				sendTagged(tag, Response{Err: "bad frame: " + err.Error()})
				continue
			}
		}
		dispatched := req
		if dispatched.Record == &dec.rec {
			// The fast decoder's Record lives in its scratch, which the next
			// frame overwrites; the handler goroutine gets its own copy.
			rec := *dispatched.Record
			dispatched.Record = &rec
		}
		reqWG.Add(1)
		f.inflight(1)
		go func(tag uint64, req Request) {
			defer reqWG.Done()
			sendTagged(tag, f.Handle(req))
			f.inflight(-1)
		}(tag, dispatched)
	}
}

func (f *FrameServer) badFrame() {
	if f.OnBadFrame != nil {
		f.OnBadFrame()
	}
}

func (f *FrameServer) inflight(d int64) {
	if f.OnInflight != nil {
		f.OnInflight(d)
	}
}

// readLine reads one newline-terminated line with a hard size cap, so a
// peer cannot make us buffer an unbounded line (the server's requests,
// the client's hello reply).
func readLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > maxLineBytes {
			return nil, errLineTooLong
		}
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return nil, err
		}
	}
}
