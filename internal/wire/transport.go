package wire

import (
	"errors"
	"io"
	"net"
	"strings"
)

// Typed sentinels for the transport-level failures the fleet router and
// sdk pool key their retry discipline on. The texts are chosen so the
// wrapped errors read exactly as they did when they were bare strings —
// peers and logs see no change — while errors.Is works locally.
var (
	// ErrConnClosed fails calls on a wire.Client whose connection died.
	ErrConnClosed = errors.New("wire: connection closed")
	// ErrSendFailed wraps a write that failed mid-request; the message
	// composes as "wire: send: <cause>".
	ErrSendFailed = errors.New("wire: send")
	// ErrTimedOut wraps a call that outlived its deadline; the message
	// composes as "wire: <op> call timed out after <d>".
	ErrTimedOut = errors.New("timed out")
)

// transientFragments recognizes transport failures that reach us as bare
// text: errors that crossed the wire in Response.Err (the type does not
// survive serialization), OS dial errors, and errors from peers that
// predate the typed sentinels. Matching text here is the single
// sanctioned fallback; everything the current tree produces locally is
// typed and never reaches this list.
var transientFragments = []string{
	"connection closed", // wire.ErrConnClosed relayed as text
	"timed out",         // call deadlines, net dial timeouts
	"wire: send:",       // mid-request write failures
	"connection refused",
	"connection reset",
	"sdk: no connection",
	// A pool the router just invalidated fails its in-flight callers
	// with "pool closed"; they must reconnect and retry like everyone
	// else, not surface a fatal error for a race they lost.
	"sdk: pool closed",
}

// TransientError reports connection-level failures worth a
// reconnect+retry, as opposed to application errors the caller must
// see. Typed checks run first; the text fallback only catches errors
// whose type was lost crossing the wire or minted by older peers.
func TransientError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrConnClosed) || errors.Is(err, ErrSendFailed) || errors.Is(err, ErrTimedOut) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	s := err.Error()
	for _, frag := range transientFragments {
		if strings.Contains(s, frag) { //anufs:allow errcode wire-crossed and pre-sentinel errors arrive as bare text; this loop is the single sanctioned fallback
			return true
		}
	}
	return false
}
