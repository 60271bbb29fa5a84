package cholesky

import (
	"sync"
	"testing"

	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/tile"
	"repro/ttg"
)

func runReal(t *testing.T, be ttg.Backend, variant Variant, ranks int, grid tile.Grid, prio bool) map[ttg.Int2]*tile.Tile {
	t.Helper()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: 2, Backend: be}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			Grid:       grid,
			Variant:    variant,
			Priorities: prio,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	return results
}

func expectFactor(t *testing.T, grid tile.Grid, results map[ttg.Int2]*tile.Tile) {
	t.Helper()
	nt := grid.NT()
	if want := nt * (nt + 1) / 2; len(results) != want {
		t.Fatalf("gathered %d result tiles, want %d", len(results), want)
	}
	if maxErr, ok := Verify(grid, results); !ok {
		t.Fatalf("L·Lᵀ ≠ A: max error %g", maxErr)
	}
}

func TestCholeskyTTGParsec(t *testing.T) {
	grid := tile.Grid{N: 64, NB: 16}
	expectFactor(t, grid, runReal(t, ttg.PaRSEC, TTGVariant, 4, grid, true))
}

func TestCholeskyTTGMadness(t *testing.T) {
	grid := tile.Grid{N: 64, NB: 16}
	expectFactor(t, grid, runReal(t, ttg.MADNESS, TTGVariant, 4, grid, false))
}

func TestCholeskyScaLAPACKModel(t *testing.T) {
	grid := tile.Grid{N: 48, NB: 12}
	expectFactor(t, grid, runReal(t, ttg.PaRSEC, ScaLAPACKModel, 3, grid, false))
}

func TestCholeskySLATEModel(t *testing.T) {
	grid := tile.Grid{N: 48, NB: 12}
	expectFactor(t, grid, runReal(t, ttg.PaRSEC, SLATEModel, 3, grid, false))
}

func TestCholeskyUnevenTiles(t *testing.T) {
	grid := tile.Grid{N: 50, NB: 16} // trailing tile is 2x2
	expectFactor(t, grid, runReal(t, ttg.PaRSEC, TTGVariant, 2, grid, true))
}

func TestCholeskySingleRank(t *testing.T) {
	grid := tile.Grid{N: 32, NB: 8}
	expectFactor(t, grid, runReal(t, ttg.PaRSEC, TTGVariant, 1, grid, false))
}

func TestElementMatrixIsSPDish(t *testing.T) {
	// Strict diagonal dominance is a sufficient SPD condition.
	const n = 200
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += Element(i, j)
			}
		}
		if Element(i, i) <= sum {
			t.Fatalf("row %d not diagonally dominant: %v <= %v", i, Element(i, i), sum)
		}
	}
}

// TestCholeskyVirtualTime runs the phantom graph on the sim backend and
// checks the full task count unfolds and virtual time behaves sensibly.
func TestCholeskyVirtualTime(t *testing.T) {
	grid := tile.Grid{N: 24 * 512, NB: 512}
	machine := cluster.Hawk()
	run := func(ranks int) (float64, int64) {
		rt := sim.New(sim.Config{
			Ranks:   ranks,
			Machine: machine,
			Flavor:  cluster.ParsecFlavor(),
			Cost:    CostModel(grid, machine),
		})
		var tasks int64
		var mu sync.Mutex
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := Build(g, Options{Grid: grid, Phantom: true, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
			mu.Lock()
			tasks += p.Tracer().Snapshot().TasksExecuted
			mu.Unlock()
		})
		return rt.LastDrainTime(), tasks
	}
	t1, tasks := run(1)
	nt := grid.NT()
	want := int64(nt + nt*(nt-1)/2*2 + nt*(nt-1)*(nt-2)/6 + nt*(nt+1)/2)
	if tasks != want {
		t.Fatalf("executed %d tasks, want %d", tasks, want)
	}
	t4, _ := run(4)
	if t4 >= t1 {
		t.Fatalf("4 nodes (%v) not faster than 1 node (%v)", t4, t1)
	}
	// Sanity: the single-node time should be within a factor of a few of
	// the ideal compute time flops/(rate·workers).
	ideal := Flops(grid.N) / (machine.KernelRate * float64(machine.Workers))
	if t1 < ideal {
		t.Fatalf("virtual time %v beats the ideal %v", t1, ideal)
	}
	if t1 > 20*ideal {
		t.Fatalf("virtual time %v too far above ideal %v", t1, ideal)
	}
}

// TestBSPSlowerThanTTGInVirtualTime reproduces the qualitative Fig. 5
// separation: the barriered variants trail the asynchronous graph.
func TestBSPSlowerThanTTGInVirtualTime(t *testing.T) {
	grid := tile.Grid{N: 16 * 512, NB: 512}
	machine := cluster.Hawk()
	run := func(variant Variant) float64 {
		rt := sim.New(sim.Config{
			Ranks:   4,
			Machine: machine,
			Flavor:  cluster.ParsecFlavor(),
			Cost:    CostModel(grid, machine),
		})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := Build(g, Options{Grid: grid, Phantom: true, Variant: variant, Priorities: variant == TTGVariant})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		return rt.LastDrainTime()
	}
	ttgTime := run(TTGVariant)
	scal := run(ScaLAPACKModel)
	slate := run(SLATEModel)
	if ttgTime >= scal {
		t.Fatalf("TTG (%v) not faster than ScaLAPACK-model (%v)", ttgTime, scal)
	}
	if slate > scal {
		t.Fatalf("SLATE-model (%v) slower than ScaLAPACK-model (%v)", slate, scal)
	}
}

// TestVerifyResidual checks the randomized O(n²) checker against the exact
// one: both accept a correct factor, and both reject it once a single
// element is off or a tile is missing.
func TestVerifyResidual(t *testing.T) {
	grid := tile.Grid{N: 72, NB: 16} // uneven trailing tile
	results := runReal(t, ttg.PaRSEC, TTGVariant, 2, grid, true)
	if resid, ok := VerifyResidual(grid, results, 1); !ok {
		t.Fatalf("correct factor rejected: residual %g", resid)
	}
	bad := results[ttg.Int2{3, 1}].Clone()
	bad.Set(5, 7, bad.At(5, 7)+1e-6)
	orig := results[ttg.Int2{3, 1}]
	results[ttg.Int2{3, 1}] = bad
	if resid, ok := VerifyResidual(grid, results, 1); ok {
		t.Fatalf("one corrupted element accepted: residual %g", resid)
	}
	if _, ok := Verify(grid, results); ok {
		t.Fatal("exact check accepted the corrupted factor")
	}
	results[ttg.Int2{3, 1}] = orig
	delete(results, ttg.Int2{4, 0})
	if resid, ok := VerifyResidual(grid, results, 1); ok {
		t.Fatalf("missing tile accepted: residual %g", resid)
	}
}
