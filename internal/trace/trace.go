// Package trace holds the runtime's monotonic counters: tasks run,
// messages and bytes moved, data copies made, protocol choices, and the
// scheduler's steal/inline/park counts. It is the one counter registry:
// each event is counted once, here or in the worker pool's per-worker
// atomics (SchedStats), and every surface — the CLI stats line, the obs
// registry behind -stats and OpenMetrics, the graph doctor and the
// benchmark harness — reads those counters through the name table
// (Counters) instead of keeping a copy.
package trace

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Collector accumulates counters for one rank. All methods are safe for
// concurrent use. The Counters table documents each field.
type Collector struct {
	TasksExecuted    atomic.Int64
	MsgsSent         atomic.Int64
	MsgsReceived     atomic.Int64
	BytesSent        atomic.Int64
	BytesReceived    atomic.Int64
	DataCopies       atomic.Int64
	CopiesAvoided    atomic.Int64
	SplitMDTransfers atomic.Int64
	ArchiveTransfers atomic.Int64
	BcastsForwarded  atomic.Int64
	WirePackets      atomic.Int64
	CoalescedMsgs    atomic.Int64

	MatchOps           atomic.Int64
	ReduceLocalFolds   atomic.Int64
	ReducePartialsSent atomic.Int64
	ReduceHops         atomic.Int64
	ReduceDeliveries   atomic.Int64
	RemoteReducerMsgs  atomic.Int64
	ReduceBytesSaved   atomic.Int64

	GatherSends     atomic.Int64
	CopySends       atomic.Int64
	ViewDecodes     atomic.Int64
	BytesZeroCopied atomic.Int64

	LoopbackDeliveries atomic.Int64

	StreamFolds     atomic.Int64
	BcastChunks     atomic.Int64
	RendezvousSends atomic.Int64
	RendezvousBytes atomic.Int64

	// sched reads the rank's worker-pool counters (nil: no pool).
	sched func() SchedStats
}

// Snapshot is an immutable copy of a rank's counters: every Collector
// field plus TasksStolen, which the worker pool keeps.
type Snapshot struct {
	TasksExecuted    int64
	MsgsSent         int64
	MsgsReceived     int64
	BytesSent        int64
	BytesReceived    int64
	DataCopies       int64
	CopiesAvoided    int64
	SplitMDTransfers int64
	ArchiveTransfers int64
	BcastsForwarded  int64
	TasksStolen      int64
	WirePackets      int64
	CoalescedMsgs    int64

	MatchOps           int64
	ReduceLocalFolds   int64
	ReducePartialsSent int64
	ReduceHops         int64
	ReduceDeliveries   int64
	RemoteReducerMsgs  int64
	ReduceBytesSaved   int64

	GatherSends     int64
	CopySends       int64
	ViewDecodes     int64
	BytesZeroCopied int64

	LoopbackDeliveries int64

	StreamFolds     int64
	BcastChunks     int64
	RendezvousSends int64
	RendezvousBytes int64
}

// SchedStats is a point-in-time snapshot of a worker pool's counters
// (sched.Stats). The pool keeps them per worker, unconditionally, so
// stall diagnostics work without an observability session.
type SchedStats struct {
	StealAttempts int64 // steal sweeps started by out-of-work workers
	StealHits     int64 // sweeps that found an item
	InlineRuns    int64 // tasks executed via the run-next slot
	Parks         int64 // times a worker blocked in cond.Wait
	Wakes         int64 // wake permits granted to parked workers
	Parked        int   // workers currently announced idle
	Workers       int
}

// String renders the pool fingerprint in the shape stall reports embed: a
// wedged run shows all workers parked with a cold steal rate, a
// livelocked one spinning steal attempts with no hits.
func (s SchedStats) String() string {
	hit := "-"
	if s.StealAttempts > 0 {
		hit = fmt.Sprintf("%.0f%%", 100*float64(s.StealHits)/float64(s.StealAttempts))
	}
	return fmt.Sprintf("parked=%d/%d steal-hit=%s (%d/%d) inlined=%d parks=%d wakes=%d",
		s.Parked, s.Workers, hit, s.StealHits, s.StealAttempts,
		s.InlineRuns, s.Parks, s.Wakes)
}

// Counter is one row of the name table: an exposed counter name and where
// its value lives — a Collector field (copied to the Snapshot field of the
// same name), a worker-pool field, or, for a name no single field backs,
// a sum of Snapshot fields.
type Counter struct {
	Name string // obs registry and OpenMetrics name
	Key  string // stats-line key; "/" appends the value to the previous key
	Doc  string // what it counts and where it is incremented

	col   func(*Collector) *atomic.Int64
	snap  func(*Snapshot) *int64
	sched func(*SchedStats) *int64
	sum   func(*Snapshot) int64
}

// value returns the counter's value in s and st.
func (c *Counter) value(s *Snapshot, st *SchedStats) int64 {
	switch {
	case c.snap != nil:
		return *c.snap(s)
	case c.sched != nil:
		return *c.sched(st)
	}
	return c.sum(s)
}

// Counters is the name table. Its order is the stats line's order. Real
// backends are internal/backend (PaRSEC and MADNESS models); sim is the
// discrete-event backend.
var Counters = []Counter{
	{Name: "core.tasks", Key: "tasks",
		Doc:  "task bodies run; core Task.Execute",
		col:  func(c *Collector) *atomic.Int64 { return &c.TasksExecuted },
		snap: func(s *Snapshot) *int64 { return &s.TasksExecuted }},
	{Name: "net.msgs_sent", Key: "msgs",
		Doc:  "logical messages sent, before coalescing; backend countSent, sim at each send",
		col:  func(c *Collector) *atomic.Int64 { return &c.MsgsSent },
		snap: func(s *Snapshot) *int64 { return &s.MsgsSent }},
	{Name: "net.msgs_received", Key: "/",
		Doc:  "logical messages received; backend commLoop, sim inject",
		col:  func(c *Collector) *atomic.Int64 { return &c.MsgsReceived },
		snap: func(s *Snapshot) *int64 { return &s.MsgsReceived }},
	{Name: "net.bytes_sent", Key: "bytes",
		Doc:  "bytes sent: wire packets (backend sendWireSegs) plus splitmd payloads (backend deliverSplit); sim counts each value at its send",
		col:  func(c *Collector) *atomic.Int64 { return &c.BytesSent },
		snap: func(s *Snapshot) *int64 { return &s.BytesSent }},
	{Name: "net.bytes_received", Key: "/",
		Doc:  "bytes received: packets (backend commLoop) plus splitmd payloads (backend fetchSplit); sim counts each delivery at inject",
		col:  func(c *Collector) *atomic.Int64 { return &c.BytesReceived },
		snap: func(s *Snapshot) *int64 { return &s.BytesReceived }},
	{Name: "net.wire_packets", Key: "pkts",
		Doc:  "physical fabric packets after coalescing; backend sendWireSegs (sim: never)",
		col:  func(c *Collector) *atomic.Int64 { return &c.WirePackets },
		snap: func(s *Snapshot) *int64 { return &s.WirePackets }},
	{Name: "net.coalesced_msgs", Key: "coalesced",
		Doc:  "logical messages that shared a wire packet; backend flushFrame",
		col:  func(c *Collector) *atomic.Int64 { return &c.CoalescedMsgs },
		snap: func(s *Snapshot) *int64 { return &s.CoalescedMsgs }},
	{Name: "data.copies", Key: "copies",
		Doc:  "deep copies of in-flight values (copy semantics, CoW materialization, remote snapshots); core send and edgesend, backend deliverSplit and deliverLoopback",
		col:  func(c *Collector) *atomic.Int64 { return &c.DataCopies },
		snap: func(s *Snapshot) *int64 { return &s.DataCopies }},
	{Name: "data.copies_avoided", Key: "avoided",
		Doc:  "deliveries that shared, took in place or moved a value instead of copying it; core data and edgesend, backend deliverSplit and deliverLoopback",
		col:  func(c *Collector) *atomic.Int64 { return &c.CopiesAvoided },
		snap: func(s *Snapshot) *int64 { return &s.CopiesAvoided }},
	{Name: "net.splitmd_transfers", Key: "splitmd",
		Doc:  "payloads moved by the splitmd protocol; real backends count both ends (deliverSplit and fetchSplit), sim the sender only",
		col:  func(c *Collector) *atomic.Int64 { return &c.SplitMDTransfers },
		snap: func(s *Snapshot) *int64 { return &s.SplitMDTransfers }},
	{Name: "net.archive_transfers", Key: "archive",
		Doc:  "whole-object archive encodes: one per copy-send and one per tree broadcast; backend Deliver and bcast, sim",
		col:  func(c *Collector) *atomic.Int64 { return &c.ArchiveTransfers },
		snap: func(s *Snapshot) *int64 { return &s.ArchiveTransfers }},
	{Name: "bcast.forwards", Key: "bcast-fwd",
		Doc:  "tree-broadcast forwards to a child; backend handleBcast and handleBcastHdr, sim",
		col:  func(c *Collector) *atomic.Int64 { return &c.BcastsForwarded },
		snap: func(s *Snapshot) *int64 { return &s.BcastsForwarded }},
	{Name: "sched.steals", Key: "stolen",
		Doc:   "successful deque steals; the worker pool's StealHits (sched trySteal), copied into Snapshot.TasksStolen",
		sched: func(st *SchedStats) *int64 { return &st.StealHits },
		snap:  func(s *Snapshot) *int64 { return &s.TasksStolen }},
	{Name: "core.match_ops", Key: "matchops",
		Doc:  "match-table shard-lock acquisitions; core deliverLocal and reduce",
		col:  func(c *Collector) *atomic.Int64 { return &c.MatchOps },
		snap: func(s *Snapshot) *int64 { return &s.MatchOps }},
	{Name: "reduce.local_folds", Key: "folds",
		Doc:  "contributions folded into a local combiner slot; core reduce foldLocal",
		col:  func(c *Collector) *atomic.Int64 { return &c.ReduceLocalFolds },
		snap: func(s *Snapshot) *int64 { return &s.ReduceLocalFolds }},
	{Name: "reduce.partials_sent", Key: "partials",
		Doc:  "partial accumulators sent up the reduce tree; core reduce",
		col:  func(c *Collector) *atomic.Int64 { return &c.ReducePartialsSent },
		snap: func(s *Snapshot) *int64 { return &s.ReducePartialsSent }},
	{Name: "reduce.interior_hops", Key: "hops",
		Doc:  "partials received and re-folded at interior tree ranks; core reduce foldPartial",
		col:  func(c *Collector) *atomic.Int64 { return &c.ReduceHops },
		snap: func(s *Snapshot) *int64 { return &s.ReduceHops }},
	{Name: "reduce.deliveries", Key: "rdeliv",
		Doc:  "partials received at the owning rank; core reduce foldPartial",
		col:  func(c *Collector) *atomic.Int64 { return &c.ReduceDeliveries },
		snap: func(s *Snapshot) *int64 { return &s.ReduceDeliveries }},
	{Name: "reduce.remote_p2p_msgs", Key: "rptp",
		Doc:  "point-to-point remote deliveries onto streaming terminals, the baseline the reduce tree replaces; core send",
		col:  func(c *Collector) *atomic.Int64 { return &c.RemoteReducerMsgs },
		snap: func(s *Snapshot) *int64 { return &s.RemoteReducerMsgs }},
	{Name: "reduce.bytes_saved", Key: "rbytes-saved",
		Doc:  "owner-inbound bytes avoided by folding into an already-parked remote-bound partial; core reduce",
		col:  func(c *Collector) *atomic.Int64 { return &c.ReduceBytesSaved },
		snap: func(s *Snapshot) *int64 { return &s.ReduceBytesSaved }},
	{Name: "serde.gather_sends", Key: "gather",
		Doc:  "remote deliveries shipped as header plus by-reference segments; backend deliverGather, sim",
		col:  func(c *Collector) *atomic.Int64 { return &c.GatherSends },
		snap: func(s *Snapshot) *int64 { return &s.GatherSends }},
	{Name: "serde.copy_sends", Key: "copysend",
		Doc:  "remote deliveries flattened through copy-encode; backend Deliver, sim",
		col:  func(c *Collector) *atomic.Int64 { return &c.CopySends },
		snap: func(s *Snapshot) *int64 { return &s.CopySends }},
	{Name: "serde.view_decodes", Key: "views",
		Doc:  "receives decoded as views over the arrived payload memory; backend gather receive",
		col:  func(c *Collector) *atomic.Int64 { return &c.ViewDecodes },
		snap: func(s *Snapshot) *int64 { return &s.ViewDecodes }},
	{Name: "serde.bytes_zero_copied", Key: "zerocopied",
		Doc:  "payload bytes that crossed by reference, spared one encode and one decode copy; backend deliverGather, sim",
		col:  func(c *Collector) *atomic.Int64 { return &c.BytesZeroCopied },
		snap: func(s *Snapshot) *int64 { return &s.BytesZeroCopied }},
	{Name: "net.loopback_deliveries", Key: "loopback",
		Doc:  "Deliver calls whose destination was the local rank, matched locally with wire copy semantics; backend deliverLoopback",
		col:  func(c *Collector) *atomic.Int64 { return &c.LoopbackDeliveries },
		snap: func(s *Snapshot) *int64 { return &s.LoopbackDeliveries }},
	{Name: "core.stream_folds", Key: "sfolds",
		Doc:  "values folded into a streaming terminal's accumulator at the match table; core deliverLocal",
		col:  func(c *Collector) *atomic.Int64 { return &c.StreamFolds },
		snap: func(s *Snapshot) *int64 { return &s.StreamFolds }},
	{Name: "bcast.chunks", Key: "chunks",
		Doc:  "pipelined-broadcast chunk packets originated or relayed, one per child link; backend bcast",
		col:  func(c *Collector) *atomic.Int64 { return &c.BcastChunks },
		snap: func(s *Snapshot) *int64 { return &s.BcastChunks }},
	{Name: "net.rendezvous_sends", Key: "rdv",
		Doc:  "values announced by splitmd (metadata pushed, payload fetched); sender side only, backend deliverSplit and sim",
		col:  func(c *Collector) *atomic.Int64 { return &c.RendezvousSends },
		snap: func(s *Snapshot) *int64 { return &s.RendezvousSends }},
	{Name: "net.rendezvous_bytes", Key: "rdv-bytes",
		Doc:  "payload bytes announced by splitmd sends; sender side only, backend deliverSplit and sim",
		col:  func(c *Collector) *atomic.Int64 { return &c.RendezvousBytes },
		snap: func(s *Snapshot) *int64 { return &s.RendezvousBytes }},

	{Name: "net.wire_bytes",
		Doc: "bytes put on the fabric, framing included: bytes sent less splitmd payloads",
		sum: func(s *Snapshot) int64 { return s.BytesSent - s.RendezvousBytes }},
	{Name: "net.eager_sends",
		Doc: "values that traveled inline rather than by splitmd: gather sends plus copy-sends",
		sum: func(s *Snapshot) int64 { return s.GatherSends + s.CopySends }},
	{Name: "bcast.trees",
		Doc: "tree broadcasts rooted here: archive encodes that were not copy-sends",
		sum: func(s *Snapshot) int64 { return s.ArchiveTransfers - s.CopySends }},
	{Name: "reduce.tree_hops",
		Doc: "partials received from the reduce tree, at interior and owning ranks",
		sum: func(s *Snapshot) int64 { return s.ReduceHops + s.ReduceDeliveries }},
	{Name: "core.reduce_folds",
		Doc: "reducer folds of every kind: combiner, tree partial and streaming-terminal",
		sum: func(s *Snapshot) int64 {
			return s.ReduceLocalFolds + s.ReduceHops + s.ReduceDeliveries + s.StreamFolds
		}},
	{Name: "sched.steal_attempts",
		Doc:   "steal sweeps started by out-of-work workers; sched trySteal",
		sched: func(st *SchedStats) *int64 { return &st.StealAttempts }},
	{Name: "sched.inlined",
		Doc:   "tasks run through a worker's run-next slot; sched execute",
		sched: func(st *SchedStats) *int64 { return &st.InlineRuns }},
	{Name: "sched.parks",
		Doc:   "workers blocking in the park protocol; sched park",
		sched: func(st *SchedStats) *int64 { return &st.Parks }},
	{Name: "sched.wakes",
		Doc:   "wake permits granted to parked workers; sched wake and wakeN",
		sched: func(st *SchedStats) *int64 { return &st.Wakes }},
}

// AttachSched installs the rank's worker-pool counter source; Snapshot
// then reports its steal hits as TasksStolen, and Each its counters. Call
// before the run starts.
func (c *Collector) AttachSched(f func() SchedStats) { c.sched = f }

// schedStats returns the worker-pool counters, zero without a pool.
func (c *Collector) schedStats() SchedStats {
	if c.sched == nil {
		return SchedStats{}
	}
	return c.sched()
}

// Snapshot captures the current counter values.
func (c *Collector) Snapshot() Snapshot { return c.snapshot(c.schedStats()) }

func (c *Collector) snapshot(st SchedStats) Snapshot {
	var s Snapshot
	for i := range Counters {
		r := &Counters[i]
		switch {
		case r.col != nil:
			*r.snap(&s) = r.col(c).Load()
		case r.snap != nil:
			*r.snap(&s) = *r.sched(&st)
		}
	}
	return s
}

// Each calls emit with every counter's name and current value.
func (c *Collector) Each(emit func(name string, v int64)) {
	st := c.schedStats()
	s := c.snapshot(st)
	for i := range Counters {
		emit(Counters[i].Name, Counters[i].value(&s, &st))
	}
}

// Parse reads named counter values (an obs registry snapshot) back into a
// Snapshot and SchedStats; derived names are skipped, missing ones are 0.
func Parse(named map[string]int64) (Snapshot, SchedStats) {
	var s Snapshot
	var st SchedStats
	for i := range Counters {
		r := &Counters[i]
		switch {
		case r.snap != nil:
			*r.snap(&s) = named[r.Name]
		case r.sched != nil:
			*r.sched(&st) = named[r.Name]
		}
	}
	return s, st
}

// Add returns the element-wise sum of two snapshots, used to aggregate
// across ranks.
func (s Snapshot) Add(o Snapshot) Snapshot {
	for i := range Counters {
		if f := Counters[i].snap; f != nil {
			*f(&s) += *f(&o)
		}
	}
	return s
}

// String renders the stats line: key=value for every Snapshot field, in
// table order, with "/"-keyed values joined to the previous one (msgs and
// bytes print as sent/received).
func (s Snapshot) String() string {
	var b strings.Builder
	for i := range Counters {
		r := &Counters[i]
		if r.snap == nil {
			continue
		}
		if r.Key == "/" {
			b.WriteByte('/')
		} else {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(r.Key)
			b.WriteByte('=')
		}
		b.WriteString(strconv.FormatInt(*r.snap(&s), 10))
	}
	return b.String()
}
