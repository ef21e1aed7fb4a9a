package wire

import (
	"errors"
	"io"
)

// This file is the tagged-frame protocol: a binary framing that lets one
// connection carry many in-flight requests with out-of-order completion.
// Every connection starts in line mode (one JSON request per line — the
// netcat door), and Client sends an OpHello first (HelloRequest). The
// server answers with Response.Proto = TaggedProtoV1 and both ends switch
// to frames; a peer that refuses the hello fails the dial.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       2     magic "aF"
//	2       1     protocol version (TaggedProtoV1)
//	3       1     kind (FrameRequest | FrameResponse)
//	4       4     payload length (bytes; <= MaxFramePayload)
//	8       8     tag (correlates a response to its request)
//	16      n     payload (JSON-encoded Request or Response)
//
// The payload stays JSON: the framing buys correlation-by-tag and
// length-delimited reads (no per-byte newline scanning); the encoding
// stays debuggable. Tags are chosen by the sender of a request and echoed
// verbatim by the responder — they are per-connection, not global.

// TaggedProtoV1 is the protocol version negotiated by OpHello.
const TaggedProtoV1 = 1

// Frame kinds.
const (
	FrameRequest  byte = 1
	FrameResponse byte = 2
)

// FrameHeaderSize is the fixed header length preceding every payload.
const FrameHeaderSize = 16

// MaxFramePayload is the default cap on one frame's payload — larger than
// any legitimate request a daemon or gateway serves, small enough that a
// hostile length field cannot make a reader allocate gigabytes. A server
// whose requests are legitimately bigger (a standby receiving snapshot
// ships) raises its own reader's bound via FrameServer.MaxPayload.
const MaxFramePayload = 16 << 20

// maxSendPayload bounds what a Client will send: the receiving server's
// reader enforces the real limit, so the sender only refuses what the
// 32-bit length field could not describe portably.
const maxSendPayload = 1<<31 - 1

const (
	frameMagic0 = 'a'
	frameMagic1 = 'F'
)

// Frame decode errors. Sentinels, not fmt-built: the decode path is a
// hot path and the caller drops the connection on any of them anyway.
var (
	ErrBadFrameHeader = errors.New("wire: bad frame header")
	ErrFrameTooLarge  = errors.New("wire: frame payload exceeds the frame limit")
	ErrBadFrameKind   = errors.New("wire: unknown frame kind")
)

// HelloRequest is the line-mode request a client sends first on a
// connection to negotiate the tagged protocol. The server answers with
// Response.Proto = TaggedProtoV1 on success; any error response means the
// peer does not speak frames. The request offers this build's capability
// bits (trace context, ...); the server grants the intersection in
// Response.Caps — an old server leaves it zero and everything it implies
// simply stays off.
func HelloRequest() Request {
	return Request{Op: OpHello, Proto: TaggedProtoV1, Caps: SupportedCaps}
}

// PutFrameHeader writes a frame header into dst, which must be at least
// FrameHeaderSize bytes. n is the payload length that follows.
//
//anufs:hotpath
func PutFrameHeader(dst []byte, kind byte, tag uint64, n int) {
	_ = dst[FrameHeaderSize-1]
	dst[0] = frameMagic0
	dst[1] = frameMagic1
	dst[2] = TaggedProtoV1
	dst[3] = kind
	dst[4] = byte(n >> 24)
	dst[5] = byte(n >> 16)
	dst[6] = byte(n >> 8)
	dst[7] = byte(n)
	dst[8] = byte(tag >> 56)
	dst[9] = byte(tag >> 48)
	dst[10] = byte(tag >> 40)
	dst[11] = byte(tag >> 32)
	dst[12] = byte(tag >> 24)
	dst[13] = byte(tag >> 16)
	dst[14] = byte(tag >> 8)
	dst[15] = byte(tag)
}

// ParseFrameHeader decodes a frame header: kind, tag, and payload length.
// It rejects bad magic or version, unknown kinds, and lengths above
// MaxFramePayload — the caller must drop the connection on error, since
// framing is lost.
//
//anufs:hotpath
func ParseFrameHeader(hdr []byte) (kind byte, tag uint64, n int, err error) {
	return parseFrameHeader(hdr, MaxFramePayload)
}

// parseFrameHeader is ParseFrameHeader with the payload bound as a
// parameter.
//
//anufs:hotpath
func parseFrameHeader(hdr []byte, max int) (kind byte, tag uint64, n int, err error) {
	if len(hdr) < FrameHeaderSize {
		return 0, 0, 0, ErrBadFrameHeader
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 || hdr[2] != TaggedProtoV1 {
		return 0, 0, 0, ErrBadFrameHeader
	}
	kind = hdr[3]
	if kind != FrameRequest && kind != FrameResponse {
		return 0, 0, 0, ErrBadFrameKind
	}
	n = int(uint32(hdr[4])<<24 | uint32(hdr[5])<<16 | uint32(hdr[6])<<8 | uint32(hdr[7]))
	if n > max {
		return 0, 0, 0, ErrFrameTooLarge
	}
	tag = uint64(hdr[8])<<56 | uint64(hdr[9])<<48 | uint64(hdr[10])<<40 | uint64(hdr[11])<<32 |
		uint64(hdr[12])<<24 | uint64(hdr[13])<<16 | uint64(hdr[14])<<8 | uint64(hdr[15])
	return kind, tag, n, nil
}

// FrameWriter writes tagged frames. Not safe for concurrent use; callers
// serialize writes (one writer mutex per connection).
type FrameWriter struct {
	w   io.Writer
	hdr [FrameHeaderSize]byte
	max int // payload bound; 0 = MaxFramePayload
}

// NewFrameWriter wraps w (typically a *bufio.Writer the caller flushes).
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// WriteFrame writes one frame. The header buffer is reused across calls,
// so a frame write allocates nothing beyond what w does.
//
//anufs:hotpath
func (fw *FrameWriter) WriteFrame(kind byte, tag uint64, payload []byte) error {
	if len(payload) > boundOr(fw.max) {
		return ErrFrameTooLarge
	}
	PutFrameHeader(fw.hdr[:], kind, tag, len(payload))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// FrameReader reads tagged frames, reusing one payload buffer across
// reads: the returned payload is only valid until the next ReadFrame.
type FrameReader struct {
	r   io.Reader
	hdr [FrameHeaderSize]byte
	buf []byte
	max int // payload bound; 0 = MaxFramePayload
}

// NewFrameReader wraps r (typically a *bufio.Reader).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadFrame reads one frame. On any error the stream's framing must be
// considered lost and the connection dropped. The payload slice aliases
// the reader's internal buffer — decode it before the next call.
//
//anufs:hotpath
func (fr *FrameReader) ReadFrame() (kind byte, tag uint64, payload []byte, err error) {
	if _, err = io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	kind, tag, n, err := parseFrameHeader(fr.hdr[:], boundOr(fr.max))
	if err != nil {
		return 0, 0, nil, err
	}
	if n > cap(fr.buf) {
		fr.grow(n)
	}
	payload = fr.buf[:n]
	if _, err = io.ReadFull(fr.r, payload); err != nil {
		return 0, 0, nil, err
	}
	return kind, tag, payload, nil
}

// boundOr returns max, or MaxFramePayload when max is unset.
//
//anufs:hotpath
func boundOr(max int) int {
	if max > 0 {
		return max
	}
	return MaxFramePayload
}

// grow replaces the payload buffer. Off the hot path by design: steady
// state reuses one buffer sized by the largest frame seen.
func (fr *FrameReader) grow(n int) {
	fr.buf = make([]byte, n)
}
