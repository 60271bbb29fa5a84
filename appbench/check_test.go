package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// Each checker must accept a correct result and reject the same result
// with one element changed.

func TestCholeskyCheckerRejectsCorruption(t *testing.T) {
	grid := tile.Grid{N: 256, NB: 64}
	res := newTileSet()
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1, Backend: ttg.PaRSEC}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		a := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true, OnResult: res.put})
		g.MakeExecutable()
		a.Seed()
		g.Fence()
	})
	x := randVec(rand.New(rand.NewSource(1)), grid.N)
	if err := checkCholesky(grid, res.m, x); err != nil {
		t.Fatalf("correct factor rejected: %v", err)
	}
	res.m[[2]int{2, 1}].Data[5] += 1e-6
	if err := checkCholesky(grid, res.m, x); err == nil {
		t.Fatal("corrupted factor accepted")
	}
}

func TestBSPMMCheckerRejectsCorruption(t *testing.T) {
	spec := sparse.DefaultSpec(24)
	spec.MaxTile = 32
	spec.FuncsMin, spec.FuncsMax = 6, 12
	mat := sparse.Generate(spec)
	res := newTileSet()
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 2, Backend: ttg.PaRSEC}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		a := bspmm.Build(g, bspmm.Options{A: mat, OnResult: res.put})
		g.MakeExecutable()
		a.Seed()
		g.Fence()
	})
	a := materialize(mat)
	products := len(mat.MulTasks())
	x := randVec(rand.New(rand.NewSource(1)), mat.N)
	if err := checkBSPMM(mat, a, res.m, products, x); err != nil {
		t.Fatalf("correct product rejected: %v", err)
	}
	for _, c := range res.m {
		c.Data[len(c.Data)/2] += 1e-6
		break
	}
	if err := checkBSPMM(mat, a, res.m, products, x); err == nil {
		t.Fatal("corrupted product accepted")
	}
}

// solveFW runs one small FW-APSP solve over a loopback TCP mesh.
func solveFW(t *testing.T, in *fwInput, rec *recorder) (*tileSet, *solve) {
	t.Helper()
	s := newSolve(1, 2, rec)
	res, err := in.solveOverTCP(s)
	if err != nil {
		t.Fatal(err)
	}
	s.finish()
	return res, s
}

func TestFWCheckerRejectsCorruption(t *testing.T) {
	in := newFWInput(1, 256, 64)
	res, _ := solveFW(t, in, nil)
	rows := sampleRows(rand.New(rand.NewSource(1)), in.grid.N, fwCheckRows)
	if err := checkFW(in.grid, in.w, res.m, rows); err != nil {
		t.Fatalf("correct distances rejected: %v", err)
	}
	r := rows[0]
	res.m[[2]int{r / 64, 1}].Data[(r%64)*64+7]++
	if err := checkFW(in.grid, in.w, res.m, rows); err == nil {
		t.Fatal("corrupted distances accepted")
	}
}

// TestTimedEndpointBitIdentical runs the same 2-rank fw-tcp solve on raw
// and on decorated endpoints. The decorated run must finish (Close is
// forwarded), report link counters (PeerStats is forwarded), record
// fabric spans, and produce bit-identical distances.
func TestTimedEndpointBitIdentical(t *testing.T) {
	in := newFWInput(7, 256, 64)
	plain, _ := solveFW(t, in, nil)
	rec := newRecorder()
	timed, s := solveFW(t, in, rec)
	if len(plain.m) != len(timed.m) {
		t.Fatalf("%d tiles decorated, %d plain", len(timed.m), len(plain.m))
	}
	for k, p := range plain.m {
		q := timed.m[k]
		for i := range p.Data {
			if math.Float64bits(p.Data[i]) != math.Float64bits(q.Data[i]) {
				t.Fatalf("tile %v element %d: %v decorated, %v plain", k, i, q.Data[i], p.Data[i])
			}
		}
	}
	if s.link.TxFrames == 0 || s.link.WritevCalls == 0 {
		t.Fatalf("decorated endpoints lost their PeerStats: %+v", s.link)
	}
	lt := summarise(rec.solveSpans(s.id))
	if lt[spFabSend] == nil || lt[spFabRecv] == nil || lt[spFence] == nil {
		t.Fatalf("missing fabric or fence spans: %v", lt)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: -5, End: 5}}
	if got := covered(p, kids); got != 45 {
		t.Fatalf("covered = %d, want 45", got)
	}
}
