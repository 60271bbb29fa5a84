package backend

import (
	"sync"
	"sync/atomic"

	"repro/internal/serde"
)

// coalescer is the per-rank send aggregator (the TaskTorrent-style message
// batching lever): small control/activation messages bound for the same
// destination rank are framed into one wire packet instead of each paying
// full per-packet fabric latency. A frame is flushed when it crosses the
// byte threshold, when it holds maxCount messages, or when the scheduler
// goes quiescent (the pool's idle hook) — so batching never stalls
// termination detection.
//
// Frame layout: a self-delimiting run of [kind u8][encoded message], where
// kind is the sub-message's native wire kind (kData, kSplit, or
// kGatherData) and the message bytes are exactly what the uncoalesced
// packet would have carried. Gather sub-messages keep only their headers
// in the frame; their payloads ride the packet as by-reference segments,
// ordered by sub-message — the receive side walks the frame with a
// segment cursor.
type coalescer struct {
	p        *Proc
	maxBytes int
	maxCount int
	peers    []peerBuf

	// Live gauges for the introspection endpoint: link bytes (see
	// peerBuf.extra) and messages currently held across all peer frames
	// (grow on add, shrink when a frame is taken for the wire).
	queuedBytes atomic.Int64
	queuedMsgs  atomic.Int64
}

// peerBuf accumulates the pending frame for one destination rank.
type peerBuf struct {
	mu    sync.Mutex
	buf   *serde.Buffer // nil when no messages are pending
	count int
	// segs collects the by-reference payload segments of the frame's
	// gather sub-messages, in sub-message order. extra is the link
	// occupancy of the frame beyond its framed run: segment bytes plus the
	// payloads that splitmd announcements in it announce. It counts toward
	// the flush threshold, since the frame holds the link for all of it.
	segs  []serde.Segment
	extra int
}

func newCoalescer(p *Proc, ranks, maxBytes, maxCount int) *coalescer {
	return &coalescer{p: p, maxBytes: maxBytes, maxCount: maxCount, peers: make([]peerBuf, ranks)}
}

// add appends one encoded message to dest's pending frame, taking ownership
// of b (its bytes are copied into the frame and the buffer is released).
// segs are the message's by-reference payload segments (gather) and extra
// its link bytes beyond the framed part. Crossing either flush threshold
// sends the frame immediately; the send happens outside the peer lock so
// concurrent senders to the same rank only contend for the memcpy.
func (c *coalescer) add(dest int, kind uint8, b *serde.Buffer, segs []serde.Segment, extra int) {
	pb := &c.peers[dest]
	pb.mu.Lock()
	if pb.buf == nil {
		pb.buf = serde.GetBuffer(c.maxBytes + 64)
	}
	pb.buf.PutU8(kind)
	pb.buf.PutRaw(b.Bytes())
	pb.segs = append(pb.segs, segs...)
	pb.extra += extra
	pb.count++
	c.queuedBytes.Add(int64(1 + len(b.Bytes()) + extra))
	c.queuedMsgs.Add(1)
	var out *serde.Buffer
	var outSegs []serde.Segment
	var n, outExtra int
	if pb.buf.Len()+pb.extra >= c.maxBytes || pb.count >= c.maxCount {
		out, outSegs, n, outExtra = pb.buf, pb.segs, pb.count, pb.extra
		pb.buf, pb.segs, pb.count, pb.extra = nil, nil, 0, 0
	}
	pb.mu.Unlock()
	b.Release()
	if out != nil {
		c.queuedBytes.Add(int64(-(out.Len() + outExtra)))
		c.queuedMsgs.Add(int64(-n))
		c.p.flushFrame(dest, out, n, outSegs)
	}
}

// flush sends dest's pending frame, if any.
func (c *coalescer) flush(dest int) {
	pb := &c.peers[dest]
	pb.mu.Lock()
	out, outSegs, n, outExtra := pb.buf, pb.segs, pb.count, pb.extra
	pb.buf, pb.segs, pb.count, pb.extra = nil, nil, 0, 0
	pb.mu.Unlock()
	if out != nil {
		c.queuedBytes.Add(int64(-(out.Len() + outExtra)))
		c.queuedMsgs.Add(int64(-n))
		c.p.flushFrame(dest, out, n, outSegs)
	}
}

// flushAll drains every destination's pending frame (fence entry and
// scheduler-idle hook).
func (c *coalescer) flushAll() {
	for d := range c.peers {
		if d != c.p.rank {
			c.flush(d)
		}
	}
}
