// One counter registry, end to end: the obs registry reads the runtime's
// trace counters live, so a scrape taken while a PaRSEC Cholesky is still
// running already shows its copy-avoidance and large-payload traffic, and
// after the run every counter name equals its trace or scheduler source.
package repro

import (
	"testing"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/sched"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

// registryNames maps every counter name the obs registry exposed before it
// read the trace counters to the value it must equal.
var registryNames = map[string]func(s trace.Snapshot, st sched.Stats) int64{
	"data.copies":             func(s trace.Snapshot, _ sched.Stats) int64 { return s.DataCopies },
	"data.copies_avoided":     func(s trace.Snapshot, _ sched.Stats) int64 { return s.CopiesAvoided },
	"reduce.local_folds":      func(s trace.Snapshot, _ sched.Stats) int64 { return s.ReduceLocalFolds },
	"reduce.tree_hops":        func(s trace.Snapshot, _ sched.Stats) int64 { return s.ReduceHops + s.ReduceDeliveries },
	"reduce.bytes_saved":      func(s trace.Snapshot, _ sched.Stats) int64 { return s.ReduceBytesSaved },
	"serde.gather_sends":      func(s trace.Snapshot, _ sched.Stats) int64 { return s.GatherSends },
	"serde.copy_sends":        func(s trace.Snapshot, _ sched.Stats) int64 { return s.CopySends },
	"serde.view_decodes":      func(s trace.Snapshot, _ sched.Stats) int64 { return s.ViewDecodes },
	"serde.bytes_zero_copied": func(s trace.Snapshot, _ sched.Stats) int64 { return s.BytesZeroCopied },
	"net.wire_packets":        func(s trace.Snapshot, _ sched.Stats) int64 { return s.WirePackets },
	"net.wire_bytes":          func(s trace.Snapshot, _ sched.Stats) int64 { return s.BytesSent - s.RendezvousBytes },
	"net.eager_sends":         func(s trace.Snapshot, _ sched.Stats) int64 { return s.GatherSends + s.CopySends },
	"net.rendezvous_sends":    func(s trace.Snapshot, _ sched.Stats) int64 { return s.RendezvousSends },
	"bcast.trees":             func(s trace.Snapshot, _ sched.Stats) int64 { return s.ArchiveTransfers - s.CopySends },
	"bcast.chunks":            func(s trace.Snapshot, _ sched.Stats) int64 { return s.BcastChunks },
	"core.reduce_folds": func(s trace.Snapshot, _ sched.Stats) int64 {
		return s.ReduceLocalFolds + s.ReduceHops + s.ReduceDeliveries + s.StreamFolds
	},
	"sched.steals":         func(_ trace.Snapshot, st sched.Stats) int64 { return st.StealHits },
	"sched.steal_attempts": func(_ trace.Snapshot, st sched.Stats) int64 { return st.StealAttempts },
	"sched.inlined":        func(_ trace.Snapshot, st sched.Stats) int64 { return st.InlineRuns },
	"sched.parks":          func(_ trace.Snapshot, st sched.Stats) int64 { return st.Parks },
	"sched.wakes":          func(_ trace.Snapshot, st sched.Stats) int64 { return st.Wakes },
}

func TestObsCountersLiveBeforeFence(t *testing.T) {
	const ranks = 2
	grid := tile.Grid{N: 256, NB: 64} // 32 KiB tiles: above the splitmd threshold
	session := obs.NewSession(obs.Config{Capacity: 1 << 12})
	var targets []live.Target
	var early obs.RegistrySnapshot
	seen := false
	ttg.RunLive(ttg.Config{Ranks: ranks, WorkersPerRank: 2, Backend: ttg.PaRSEC, Obs: session},
		func(ts []live.Target, _ []live.Collector) { targets = ts },
		func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := cholesky.Build(g, cholesky.Options{Grid: grid, Variant: cholesky.TTGVariant, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			if pc.Rank() == 0 {
				// Scrape while the factorization runs, before this rank
				// enters the fence.
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					early = session.LiveReport().Metrics
					c := early.Counters
					if c["data.copies_avoided"] > 0 && c["serde.gather_sends"]+c["net.rendezvous_sends"] > 0 {
						seen = true
						break
					}
				}
			}
			g.Fence()
		})
	if !seen {
		t.Fatalf("no scrape before the fence showed copies avoided and gather/rendezvous sends: %v", early.Counters)
	}

	lr := session.LiveReport()
	var splitmd, rdv int64
	for _, tg := range targets {
		s, st := tg.Counters(), tg.Sched()
		if s.TasksStolen != st.StealHits {
			t.Errorf("rank %d: TasksStolen %d != StealHits %d", tg.Rank, s.TasksStolen, st.StealHits)
		}
		got := lr.PerRank[tg.Rank].Counters
		for name, want := range registryNames {
			v, ok := got[name]
			if !ok {
				t.Errorf("rank %d: counter %q missing", tg.Rank, name)
			} else if v != want(s, st) {
				t.Errorf("rank %d: %s = %d, source says %d", tg.Rank, name, v, want(s, st))
			}
		}
		splitmd += s.SplitMDTransfers
		rdv += s.RendezvousSends
	}
	// Real backends count a splitmd transfer at both ends.
	if rdv == 0 || splitmd != 2*rdv {
		t.Errorf("splitmd transfers %d, rendezvous sends %d: want twice as many transfers", splitmd, rdv)
	}
}
