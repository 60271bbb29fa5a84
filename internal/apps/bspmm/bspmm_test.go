package bspmm

import (
	"math"
	"sync"
	"testing"

	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

func smallMatrix() *sparse.Matrix {
	spec := sparse.DefaultSpec(40)
	spec.MaxTile = 48
	spec.FuncsMin, spec.FuncsMax = 8, 20
	spec.Box = 120
	return sparse.Generate(spec)
}

// denseProduct computes C = A·A by materializing all tiles densely.
func denseProduct(m *sparse.Matrix) map[ttg.Int2]*tile.Tile {
	nt := m.NT()
	out := map[ttg.Int2]*tile.Tile{}
	for i := 0; i < nt; i++ {
		for _, k := range m.Row(i) {
			a := m.Materialize(i, k, false)
			for _, j := range m.Row(k) {
				b := m.Materialize(k, j, false)
				c, ok := out[ttg.Int2{i, j}]
				if !ok {
					c = tile.New(m.Dim(i), m.Dim(j))
					out[ttg.Int2{i, j}] = c
				}
				for r := 0; r < c.Rows; r++ {
					for p := 0; p < a.Cols; p++ {
						av := a.At(r, p)
						for cc := 0; cc < c.Cols; cc++ {
							c.Add(r, cc, av*b.At(p, cc))
						}
					}
				}
			}
		}
	}
	return out
}

func runReal(t *testing.T, be ttg.Backend, variant Variant, ranks int, m *sparse.Matrix) map[ttg.Int2]*tile.Tile {
	t.Helper()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: 2, Backend: be}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A:       m,
			Variant: variant,
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

func expectProduct(t *testing.T, m *sparse.Matrix, results map[ttg.Int2]*tile.Tile) {
	t.Helper()
	want := denseProduct(m)
	if len(results) != len(want) {
		t.Fatalf("got %d product tiles, want %d", len(results), len(want))
	}
	for key, w := range want {
		got := results[key]
		if got == nil {
			t.Fatalf("missing product tile %v", key)
		}
		for idx := range w.Data {
			if math.Abs(got.Data[idx]-w.Data[idx]) > 1e-9*math.Max(1, math.Abs(w.Data[idx])) {
				t.Fatalf("tile %v element %d: got %v want %v", key, idx, got.Data[idx], w.Data[idx])
			}
		}
	}
}

func TestBSPMMTTGParsec(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.PaRSEC, TTGVariant, 4, m))
}

func TestBSPMMTTGMadness(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.MADNESS, TTGVariant, 2, m))
}

func TestBSPMMTTGSingleRank(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.PaRSEC, TTGVariant, 1, m))
}

func TestBSPMMDBCSRModel(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.PaRSEC, DBCSRModel, 4, m))
}

func TestBSPMMDBCSRModelMultiLayer(t *testing.T) {
	m := smallMatrix()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 4, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A: m, Variant: DBCSRModel, Layers: 2,
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
	expectProduct(t, m, results)
}

func TestBSPMMTinyWindows(t *testing.T) {
	// Aggressive throttling must not deadlock.
	m := smallMatrix()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 3, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A: m, ReadWindow: 1, BatchSize: 1, CoordWindow: 1,
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
	expectProduct(t, m, results)
}

// TestBSPMMVirtualTime checks the phantom graph runs under the DES and
// both variants complete with plausible times.
func TestBSPMMVirtualTime(t *testing.T) {
	spec := sparse.DefaultSpec(150)
	m := sparse.Generate(spec)
	machine := cluster.Hawk()
	run := func(variant Variant, ranks int) float64 {
		rt := sim.New(sim.Config{
			Ranks: ranks, Machine: machine,
			Flavor: cluster.ParsecFlavor(),
			Cost:   CostModel(m, machine),
		})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := Build(g, Options{A: m, Phantom: true, Variant: variant})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		return rt.LastDrainTime()
	}
	t2 := run(TTGVariant, 2)
	t8 := run(TTGVariant, 8)
	if t8 >= t2 {
		t.Fatalf("TTG bspmm: 8 nodes (%v) not faster than 2 nodes (%v)", t8, t2)
	}
	d8 := run(DBCSRModel, 8)
	if d8 <= 0 {
		t.Fatalf("DBCSR model produced zero virtual time")
	}
}

// TestBackendIndependenceMatrix pins the §II-D claim for the SUMMA graphs.
func TestBackendIndependenceMatrix(t *testing.T) {
	m := smallMatrix()
	for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
		for _, variant := range []Variant{TTGVariant, DBCSRModel} {
			t.Run(be.String()+"/"+variant.String(), func(t *testing.T) {
				expectProduct(t, m, runReal(t, be, variant, 2, m))
			})
		}
	}
}

// TestBSPMMTTG25D verifies the asynchronous 2.5D variant (the conversion
// the paper's §III-D anticipates) computes the exact product.
func TestBSPMMTTG25D(t *testing.T) {
	m := smallMatrix()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 4, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A: m, Variant: TTG25D, Layers: 2,
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
	expectProduct(t, m, results)
}

// TestBSPMMPendingShellsBound pins the coordinator's bound on live match
// state: with the local broadcasts of both A and B released in batches,
// the partially matched task shells a rank holds stay a small share of its
// MultiplyAdds instead of growing with every tile read (when only A was
// gated, every MultiplyAdd waited as a shell holding its B tile).
func TestBSPMMPendingShellsBound(t *testing.T) {
	spec := sparse.DefaultSpec(100)
	spec.MaxTile = 16
	spec.FuncsMin, spec.FuncsMax = 5, 14
	spec.Seed = 1
	m := sparse.Generate(spec)
	mas := 0
	for _, ks := range m.MulTasks() {
		mas += len(ks)
	}
	session := obs.NewSession(obs.Config{Capacity: 1 << 10})
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 2, Backend: ttg.PaRSEC, Obs: session}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{A: m, OnResult: func(i, j int, tl *tile.Tile) {
			mu.Lock()
			results[ttg.Int2{i, j}] = tl
			mu.Unlock()
		}})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	hwm := session.Rank(0).Metrics().Gauge(obs.GaugePendingShells).Max()
	t.Logf("pending shells high-water mark %d of %d MultiplyAdds", hwm, mas)
	if hwm >= int64(mas/4) {
		t.Fatalf("pending shells peaked at %d, want below 25%% of the %d MultiplyAdds", hwm, mas)
	}
	if resid, ok := VerifyResidual(m, results, 1); !ok {
		t.Fatalf("product residual %g", resid)
	}
}

// TestVerifyResidual checks the Freivalds checker accepts a computed
// product and rejects one wrong element, a missing tile and an extra one.
func TestVerifyResidual(t *testing.T) {
	m := smallMatrix()
	results := runReal(t, ttg.PaRSEC, TTGVariant, 2, m)
	resid, ok := VerifyResidual(m, results, 7)
	if !ok {
		t.Fatalf("correct product rejected: residual %g", resid)
	}
	t.Logf("correct product: residual %.3g", resid)

	key := ttg.Int2{0, 0}
	c := results[key]
	orig := c.Data[0]
	c.Data[0] = orig * (1 + 1e-6)
	if bad, ok := VerifyResidual(m, results, 7); ok || !(bad > 1e3*resid) {
		t.Fatalf("corrupted element %v[0] accepted: residual %g (correct %g)", key, bad, resid)
	}
	c.Data[0] = orig

	delete(results, key)
	if _, ok := VerifyResidual(m, results, 7); ok {
		t.Fatalf("missing tile %v accepted", key)
	}
	results[ttg.Int2{0, m.NT()}] = c // same count, but not a product tile
	if _, ok := VerifyResidual(m, results, 7); ok {
		t.Fatalf("extra tile accepted")
	}
}
