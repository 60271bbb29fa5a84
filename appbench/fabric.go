package main

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/serde"
)

// timedEndpoint wraps the fabric.Endpoint handed to ttg.Config.Fabric and
// records a span around every send, blocking receive and payload fetch.
// The backend type-asserts its endpoint for Close (shutdown handshake)
// and fabric.StatSource (per-peer counters), so both are forwarded
// explicitly; the embedded interface alone would hide them.
type timedEndpoint struct {
	fabric.Endpoint
	rec    *recorder
	rank   int
	solve  int
	parent int64 // the rank's core.fence span
}

func (e *timedEndpoint) Send(dst int, kind uint8, data []byte) {
	t := time.Now()
	e.Endpoint.Send(dst, kind, data)
	e.rec.add(0, e.parent, spFabSend, e.rank, e.solve, t, time.Now(), int64(len(data)))
}

func (e *timedEndpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	n := int64(len(data) + serde.SegmentBytes(segs)) // segs belong to the fabric after the call
	t := time.Now()
	e.Endpoint.SendSegs(dst, kind, data, segs)
	e.rec.add(0, e.parent, spFabSend, e.rank, e.solve, t, time.Now(), n)
}

func (e *timedEndpoint) Recv() (fabric.Packet, bool) {
	t := time.Now()
	pkt, ok := e.Endpoint.Recv()
	e.rec.add(0, e.parent, spFabRecv, e.rank, e.solve, t, time.Now(), 0)
	return pkt, ok
}

func (e *timedEndpoint) FetchObject(h fabric.RMAHandle, bytes int) (any, bool, error) {
	t := time.Now()
	obj, owned, err := e.Endpoint.FetchObject(h, bytes)
	e.rec.add(0, e.parent, spFabFetch, e.rank, e.solve, t, time.Now(), int64(bytes))
	return obj, owned, err
}

// Close forwards the endpoint's shutdown; without it ttg.Run would never
// close the sockets and the comm loop would block in Recv forever.
func (e *timedEndpoint) Close() error {
	if c, ok := e.Endpoint.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// PeerStats forwards the per-peer link counters.
func (e *timedEndpoint) PeerStats() []fabric.PeerStat {
	if s, ok := e.Endpoint.(fabric.StatSource); ok {
		return s.PeerStats()
	}
	return nil
}

var (
	_ fabric.Endpoint   = (*timedEndpoint)(nil)
	_ fabric.StatSource = (*timedEndpoint)(nil)
)
