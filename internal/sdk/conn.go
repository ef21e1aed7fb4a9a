package sdk

import "anufs/internal/wire"

// Conn is one pipelined connection: many in-flight requests multiplexed
// over one TCP connection as tagged frames, completing out of order. It is
// the wire package's Client — the sdk adds pooling and batching on top,
// not a second transport.
type Conn = wire.Client

// Dial opens a pipelined connection to a wire server with opts.Timeout as
// its per-call deadline; with opts.Obs set, every call records its
// pipeline depth in the sdk_pipeline_depth histogram.
func Dial(addr string, opts Options) (*Conn, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(opts.Timeout)
	if opts.Obs != nil {
		c.ObserveDepth(opts.Obs.Hist.Get("sdk_pipeline_depth", ""))
	}
	return c, nil
}
