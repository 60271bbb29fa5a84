package main

import (
	"fmt"
	"math"

	"repro/internal/apps/cholesky"
	"repro/internal/lapack"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// Per-solve result checkers, each O(n²) or cheaper so they can run after
// every solve at benchmark scale (cholesky.Verify is O(n³)).

// residualTol bounds the relative Freivalds residual of a correct result;
// a wrong element moves it by many orders of magnitude more.
const residualTol = 1e-10

// checkCholesky is a Freivalds test of A = L·Lᵀ: it compares L·(Lᵀ·x)
// with A·x for the random vector x.
func checkCholesky(grid tile.Grid, tiles map[[2]int]*tile.Tile, x []float64) error {
	n, nb, nt := grid.N, grid.NB, grid.NT()
	if want := nt * (nt + 1) / 2; len(tiles) != want {
		return fmt.Errorf("cholesky: %d factor tiles, want %d", len(tiles), want)
	}
	y := make([]float64, n) // Lᵀ·x
	for k, t := range tiles {
		i, j := k[0], k[1]
		if j > i || t.Rows != grid.Dim(i) || t.Cols != grid.Dim(j) {
			return fmt.Errorf("cholesky: unexpected tile %v (%dx%d)", k, t.Rows, t.Cols)
		}
		for r := 0; r < t.Rows; r++ {
			xr := x[i*nb+r]
			for c := 0; c < t.Cols; c++ {
				y[j*nb+c] += t.At(r, c) * xr
			}
		}
	}
	z := make([]float64, n) // L·y
	for k, t := range tiles {
		i, j := k[0], k[1]
		for r := 0; r < t.Rows; r++ {
			s := 0.0
			for c := 0; c < t.Cols; c++ {
				s += t.At(r, c) * y[j*nb+c]
			}
			z[i*nb+r] += s
		}
	}
	b := make([]float64, n) // A·x
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += cholesky.Element(i, j) * x[j]
		}
		b[i] = s
	}
	return residual("cholesky", z, b)
}

// checkBSPMM is a Freivalds test of C = A·A: it compares C·x with
// A·(A·x). products is the number of C tiles the multiply must produce.
func checkBSPMM(m *sparse.Matrix, a, c map[[2]int]*tile.Tile, products int, x []float64) error {
	if len(c) != products {
		return fmt.Errorf("bspmm: %d product tiles, want %d", len(c), products)
	}
	ax := mulVec(m, a, x)
	aax := mulVec(m, a, ax)
	cx := mulVec(m, c, x)
	return residual("bspmm", cx, aax)
}

// mulVec multiplies the block matrix given by its nonzero tiles with x.
func mulVec(m *sparse.Matrix, tiles map[[2]int]*tile.Tile, x []float64) []float64 {
	y := make([]float64, m.N)
	for k, t := range tiles {
		ro, co := m.Offsets[k[0]], m.Offsets[k[1]]
		for r := 0; r < t.Rows; r++ {
			s := 0.0
			for c := 0; c < t.Cols; c++ {
				s += t.At(r, c) * x[co+c]
			}
			y[ro+r] += s
		}
	}
	return y
}

// residual fails when ‖got − want‖₂ / ‖want‖₂ exceeds residualTol.
func residual(app string, got, want []float64) error {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	rel := math.Sqrt(num / den)
	if !(rel <= residualTol) {
		return fmt.Errorf("%s: Freivalds residual %.3g exceeds %.0g", app, rel, residualTol)
	}
	return nil
}

// checkFW compares the given rows of the distance matrix with
// single-source Dijkstra on the weights w (all positive). Path lengths
// are sums of integers, so the comparison is exact.
func checkFW(grid tile.Grid, w []float64, tiles map[[2]int]*tile.Tile, rows []int) error {
	n, nb, nt := grid.N, grid.NB, grid.NT()
	if len(tiles) != nt*nt {
		return fmt.Errorf("fw: %d distance tiles, want %d", len(tiles), nt*nt)
	}
	for _, src := range rows {
		dist := dijkstra(w, n, src)
		for j := 0; j < n; j++ {
			t := tiles[[2]int{src / nb, j / nb}]
			if t == nil {
				return fmt.Errorf("fw: missing tile (%d,%d)", src/nb, j/nb)
			}
			if got := t.At(src%nb, j%nb); got != dist[j] {
				return fmt.Errorf("fw: d(%d,%d) = %g, Dijkstra gives %g", src, j, got, dist[j])
			}
		}
	}
	return nil
}

// dijkstra is the dense O(n²) single-source shortest-path algorithm;
// unreachable vertices keep lapack.Inf, the FW kernels' "no path".
func dijkstra(w []float64, n, src int) []float64 {
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = lapack.Inf
	}
	dist[src] = 0
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < lapack.Inf && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		row := w[u*n : (u+1)*n]
		for v, wt := range row {
			if wt < lapack.Inf && dist[u]+wt < dist[v] {
				dist[v] = dist[u] + wt
			}
		}
	}
}
