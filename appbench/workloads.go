package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/fabric"
	"repro/internal/lapack"
	"repro/internal/netfab"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// Workload sizes; README.md gives the reason for each.
const (
	potrfN, potrfNB = 2048, 128
	bspmmAtoms      = 200
	bspmmSpecSeed   = 1 // fixes the matrix structure; see newBSPMM
	fwN, fwNB       = 1024, 64
	fwCheckRows     = 8   // rows of every FW result compared with Dijkstra
	fwDensity       = 0.4 // share of vertex pairs joined by an edge
	fwMaxWeight     = 1000
)

// instance is one workload with its inputs generated from the seed.
type instance struct {
	ranks int
	flops float64 // the app package's own op count
	// run executes one solve under s and returns the checker for its
	// result.
	run func(s *solve) (check func() error, err error)
	// replay builds the serial kernel replay of one solve.
	replay func() *kernelReplay
}

var workloads = map[string]func(seed int64) *instance{
	"potrf-2r":   newPotrf,
	"bspmm-fine": newBSPMM,
	"fw-tcp":     newFW,
}

// tileSet collects result tiles delivered to OnResult on any rank.
type tileSet struct {
	mu sync.Mutex
	m  map[[2]int]*tile.Tile
}

func newTileSet() *tileSet { return &tileSet{m: map[[2]int]*tile.Tile{}} }

func (t *tileSet) put(i, j int, tl *tile.Tile) {
	t.mu.Lock()
	t.m[[2]int{i, j}] = tl
	t.mu.Unlock()
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// newPotrf: dense tiled Cholesky on the PaRSEC backend, 2 ranks x 1
// worker in one process, critical-path priorities on. The app fixes the
// matrix; the seed draws the checker's vectors.
func newPotrf(seed int64) *instance {
	grid := tile.Grid{N: potrfN, NB: potrfNB}
	rng := rand.New(rand.NewSource(seed))
	return &instance{
		ranks: 2,
		flops: cholesky.Flops(grid.N),
		run: func(s *solve) (func() error, error) {
			res := newTileSet()
			s.runInProcess(ttg.Config{Ranks: 2, WorkersPerRank: 1, Backend: ttg.PaRSEC}, func(g *ttg.Graph) seeder {
				return cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true, OnResult: res.put})
			})
			x := randVec(rng, grid.N)
			return func() error { return checkCholesky(grid, res.m, x) }, nil
		},
		replay: func() *kernelReplay { return potrfReplay(grid) },
	}
}

// bspmmMatrix is the fine-grained synthetic Yukawa operator of
// bspmm-fine: about 243k MultiplyAdd tasks (286k tasks in all) on tiles
// of at most 16.
func bspmmMatrix() *sparse.Matrix {
	spec := sparse.DefaultSpec(bspmmAtoms)
	spec.MaxTile = 16
	spec.FuncsMin, spec.FuncsMax = 5, 14
	spec.Seed = bspmmSpecSeed
	return sparse.Generate(spec)
}

// materialize builds every retained tile of m once, for the checker and
// the kernel replay.
func materialize(m *sparse.Matrix) map[[2]int]*tile.Tile {
	a := map[[2]int]*tile.Tile{}
	for i := 0; i < m.NT(); i++ {
		for _, j := range m.Row(i) {
			a[[2]int{i, j}] = m.Materialize(i, j, false)
		}
	}
	return a
}

// newBSPMM: block-sparse C = A·A with small blocks on the PaRSEC backend,
// 1 rank x 2 workers. The generator's seed places the atom clusters, and
// whether clusters overlap changes the task count up to tenfold between
// seeds, so the matrix is fixed and the workload seed draws the checker's
// vectors.
func newBSPMM(seed int64) *instance {
	mat := bspmmMatrix()
	a := materialize(mat)
	products := len(mat.MulTasks())
	rng := rand.New(rand.NewSource(seed))
	return &instance{
		ranks: 1,
		flops: mat.MulFlops(),
		run: func(s *solve) (func() error, error) {
			res := newTileSet()
			s.runInProcess(ttg.Config{Ranks: 1, WorkersPerRank: 2, Backend: ttg.PaRSEC}, func(g *ttg.Graph) seeder {
				return bspmm.Build(g, bspmm.Options{A: mat, OnResult: res.put})
			})
			x := randVec(rng, mat.N)
			return func() error { return checkBSPMM(mat, a, res.m, products, x) }, nil
		},
		replay: func() *kernelReplay { return bspmmReplay(mat, a) },
	}
}

// fwWeights draws the seeded digraph as a dense n×n matrix: integer
// weights, so every path length is exact in float64 and FW and Dijkstra
// must agree bit for bit.
func fwWeights(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				w[i*n+j] = 0
			case rng.Float64() < fwDensity:
				w[i*n+j] = float64(1 + rng.Intn(fwMaxWeight))
			default:
				w[i*n+j] = lapack.Inf
			}
		}
	}
	return w
}

// toTiles cuts a dense n×n row-major matrix into grid tiles.
func toTiles(grid tile.Grid, w []float64) [][]*tile.Tile {
	nt := grid.NT()
	out := make([][]*tile.Tile, nt)
	for i := range out {
		out[i] = make([]*tile.Tile, nt)
		for j := range out[i] {
			t := tile.New(grid.Dim(i), grid.Dim(j))
			for r := 0; r < t.Rows; r++ {
				copy(t.Data[r*t.Cols:(r+1)*t.Cols], w[(i*grid.NB+r)*grid.N+j*grid.NB:])
			}
			out[i][j] = t
		}
	}
	return out
}

// fwInput is the FW-APSP workload's generated input.
type fwInput struct {
	grid  tile.Grid
	w     []float64
	tiles [][]*tile.Tile
}

func newFWInput(seed int64, n, nb int) *fwInput {
	grid := tile.Grid{N: n, NB: nb}
	w := fwWeights(seed, n)
	return &fwInput{grid: grid, w: w, tiles: toTiles(grid, w)}
}

// solveOverTCP runs FW-APSP as two ttg.Run calls in this process, one per
// endpoint of a fresh loopback TCP mesh, so every payload crosses real
// sockets. When s is traced each endpoint is wrapped in timedEndpoint.
func (in *fwInput) solveOverTCP(s *solve) (*tileSet, error) {
	res := newTileSet()
	s.t0 = time.Now()
	eps, err := netfab.NewLocalMesh(2, netfab.Config{Transport: "tcp"})
	if err != nil {
		return nil, fmt.Errorf("mesh bootstrap: %w", err)
	}
	build := func(g *ttg.Graph) seeder {
		return fw.Build(g, fw.Options{
			Grid: in.grid, Priorities: true, OnResult: res.put,
			// The graph relaxes its seeds in place, so every solve starts
			// from a copy of the kept input.
			Source: func(i, j int) *tile.Tile { return in.tiles[i][j].Clone() },
		})
	}
	ends := make([]fabric.Endpoint, len(eps))
	var wg sync.WaitGroup
	for r, raw := range eps {
		ends[r] = raw
		if s.rec != nil {
			ends[r] = &timedEndpoint{Endpoint: raw, rec: s.rec, rank: r, solve: s.id, parent: s.fence[r]}
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s.runCall[r] = time.Now()
			ttg.Run(ttg.Config{Fabric: ends[r], WorkersPerRank: 1, Backend: ttg.MADNESS}, func(pc *ttg.Process) {
				s.rankMain(pc, build)
			})
			s.returned[r] = time.Now()
		}(r)
	}
	wg.Wait()
	for _, ep := range ends {
		ss, ok := ep.(fabric.StatSource)
		if !ok {
			continue
		}
		for _, p := range ss.PeerStats() {
			s.link.TxFrames += p.TxFrames
			s.link.WritevCalls += p.WritevCalls
		}
	}
	return res, nil
}

// newFW: tiled Floyd-Warshall on the MADNESS backend, 2 ranks x 1 worker
// over loopback TCP; the seed draws the graph and the checked rows.
func newFW(seed int64) *instance {
	in := newFWInput(seed, fwN, fwNB)
	rng := rand.New(rand.NewSource(seed))
	return &instance{
		ranks: 2,
		flops: fw.Flops(fwN),
		run: func(s *solve) (func() error, error) {
			res, err := in.solveOverTCP(s)
			if err != nil {
				return nil, err
			}
			rows := sampleRows(rng, fwN, fwCheckRows)
			return func() error { return checkFW(in.grid, in.w, res.m, rows) }, nil
		},
		replay: func() *kernelReplay { return fwReplay(in.grid, in.tiles) },
	}
}

// sampleRows draws k distinct row indices below n, sorted.
func sampleRows(rng *rand.Rand, n, k int) []int {
	rows := rng.Perm(n)[:k]
	sort.Ints(rows)
	return rows
}
