package backend_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/parsec"
	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/internal/trace"
)

// splitTile is a tile big enough to take the splitmd path (64x64 float64s
// = 32 KiB, above the 4 KiB eager threshold), filled with v.
func splitTile(v float64) *tile.Tile {
	tl := tile.NewPooled(64, 64)
	for i := range tl.Data {
		tl.Data[i] = v
	}
	return tl
}

func tileSum(tl *tile.Tile) float64 {
	s := 0.0
	for _, v := range tl.Data {
		s += v
	}
	return s
}

// TestSplitMDMoveSnapshotsForLocalWriter moves one tile of ones to a
// writer on the sending rank and a writer on the far rank. The local
// writer takes the object in place and overwrites it, so the splitmd
// transport must not let the remote fetch read that object: the far
// consumer must still see the ones.
func TestSplitMDMoveSnapshotsForLocalWriter(t *testing.T) {
	var mu sync.Mutex
	sums := map[int]float64{}
	rt := parsec.New(2, parsec.Config{WorkersPerRank: 1})
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				ctx.BroadcastMode(0, []any{serde.Int1{0}, serde.Int1{1}}, splitTile(1), core.SendMove)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "writer",
			Inputs: []core.InputSpec{{Edge: out, Access: core.ReadWrite}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] },
			Body: func(ctx *core.TaskContext) {
				tl := ctx.Input(0).(*tile.Tile)
				s := tileSum(tl)
				for i := range tl.Data {
					tl.Data[i] = -1
				}
				mu.Lock()
				sums[ctx.Rank()] = s
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
	})
	for r := 0; r < 2; r++ {
		if sums[r] != 64*64 {
			t.Errorf("rank %d writer summed %v, want %v", r, sums[r], 64*64)
		}
	}
}

// TestSplitMDAnnouncementNotHeldWhileSenderBusy checks that a large
// payload's splitmd announcement leaves at once instead of waiting in the
// send coalescer until the sending rank goes idle: the sender's only
// worker stays busy in its body until the remote consumer has run, which
// can only happen if the announcement reached the wire mid-body.
func TestSplitMDAnnouncementNotHeldWhileSenderBusy(t *testing.T) {
	ran := make(chan struct{})
	var waited time.Duration
	timedOut := false
	rt := parsec.New(2, parsec.Config{WorkersPerRank: 1})
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				tl := tile.NewPooled(128, 128) // 128 KiB
				ctx.SendMode(0, serde.Int1{1}, tl, core.SendMove)
				start := time.Now()
				select {
				case <-ran:
				case <-time.After(5 * time.Second):
					timedOut = true
				}
				waited = time.Since(start)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(any) int { return 1 },
			Body:   func(ctx *core.TaskContext) { close(ran) },
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
	})
	if timedOut {
		t.Fatalf("remote consumer did not run while the sender was busy (waited %v): "+
			"the splitmd announcement was held until the sender went idle", waited)
	}
}

// borrowSeen is what one consumer of a lent tile saw.
type borrowSeen struct {
	access core.AccessMode
	tile   *tile.Tile
	sum    float64
}

// borrowFanOut lends one tile of twos from rank 0 to consumers on rank 1,
// one per access mode in accesses (all on one key), and returns the
// lender's tile, what each consumer saw, and rank 1's counters.
func borrowFanOut(t *testing.T, accesses ...core.AccessMode) (lent *tile.Tile, seen []borrowSeen, recv trace.Snapshot) {
	t.Helper()
	var mu sync.Mutex
	rt := parsec.New(2, parsec.Config{WorkersPerRank: 1})
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "lender",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				tl := splitTile(2)
				mu.Lock()
				lent = tl
				mu.Unlock()
				ctx.SendMode(0, serde.Int1{0}, tl, core.SendBorrow)
			},
		})
		for _, acc := range accesses {
			acc := acc
			g.AddTT(core.TTSpec{
				Name:   "consumer-" + acc.String(),
				Inputs: []core.InputSpec{{Edge: out, Access: acc}},
				Keymap: func(any) int { return 1 },
				Body: func(ctx *core.TaskContext) {
					tl := ctx.Input(0).(*tile.Tile)
					s := tileSum(tl)
					if acc != core.ReadOnly {
						for i := range tl.Data {
							tl.Data[i] = -1
						}
					}
					mu.Lock()
					seen = append(seen, borrowSeen{access: acc, tile: tl, sum: s})
					mu.Unlock()
				},
			})
		}
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		if p.Rank() == 1 {
			recv = p.Tracer().Snapshot()
		}
	})
	if len(seen) != len(accesses) {
		t.Fatalf("%d consumers ran, want %d", len(seen), len(accesses))
	}
	return lent, seen, recv
}

// TestSplitMDBorrowSharesLenderTile lends a tile to read-only consumers
// on the far rank of an in-process cluster: the splitmd fetch delivers
// the lender's own object, so no receive tile is allocated and every
// reader's share is counted as a copy avoided.
func TestSplitMDBorrowSharesLenderTile(t *testing.T) {
	for _, readers := range []int{1, 3} {
		accesses := make([]core.AccessMode, readers)
		for i := range accesses {
			accesses[i] = core.ReadOnly
		}
		lent, seen, recv := borrowFanOut(t, accesses...)
		for _, s := range seen {
			if s.tile != lent {
				t.Errorf("%d readers: a reader got a receive copy, want the lender's tile", readers)
			}
			if s.sum != 2*64*64 {
				t.Errorf("%d readers: reader summed %v, want %v", readers, s.sum, 2*64*64)
			}
		}
		if recv.SplitMDTransfers != 1 {
			t.Errorf("%d readers: SplitMDTransfers = %d, want 1", readers, recv.SplitMDTransfers)
		}
		if recv.DataCopies != 0 || recv.CopiesAvoided != int64(readers) {
			t.Errorf("%d readers: receiver copies=%d avoided=%d, want 0 and %d",
				readers, recv.DataCopies, recv.CopiesAvoided, readers)
		}
	}
}

// TestSplitMDBorrowClonesForRemoteWriters lends a tile to a read-only, a
// read-write and a default-access consumer on the far rank. Only the
// reader may share the lender's object; the two writers each get a clone,
// so their overwrites reach neither the reader nor the lender.
func TestSplitMDBorrowClonesForRemoteWriters(t *testing.T) {
	lent, seen, recv := borrowFanOut(t, core.ReadOnly, core.ReadWrite, core.AccessDefault)
	for _, s := range seen {
		if (s.tile == lent) != (s.access == core.ReadOnly) {
			t.Errorf("%v consumer: shares lender's tile = %v", s.access, s.tile == lent)
		}
		if s.sum != 2*64*64 {
			t.Errorf("%v consumer summed %v, want %v", s.access, s.sum, 2*64*64)
		}
	}
	if got := tileSum(lent); got != 2*64*64 {
		t.Errorf("lender's tile sums to %v after the run, want %v (a writer mutated it)", got, 2*64*64)
	}
	if recv.DataCopies != 2 {
		t.Errorf("receiver DataCopies = %d, want 2 (one clone per writer)", recv.DataCopies)
	}
}
