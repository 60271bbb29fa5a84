package main

import (
	"sort"

	"repro/internal/apps/cholesky"
	"repro/internal/lapack"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// The serial kernel replay runs a workload's exact kernel sequence on
// one thread, with no runtime: the plain single-threaded baseline, and
// the kernels' share of a solve's CPU time. Inputs are built once; reset
// restores the working tiles outside the timed section.

// opCount tallies the kernels' operations and the operand bytes they
// read and write, computed from tile shapes (not measured traffic).
type opCount struct {
	flops, bytes float64
}

func (c *opCount) add(flops float64, elems int) {
	c.flops += flops
	c.bytes += 8 * float64(elems)
}

type kernelReplay struct {
	reset func()
	run   func() opCount
}

// potrfReplay is right-looking tiled Cholesky on the lower triangle.
func potrfReplay(grid tile.Grid) *kernelReplay {
	nt := grid.NT()
	in := make([][]*tile.Tile, nt)
	work := make([][]*tile.Tile, nt)
	for i := range in {
		in[i] = make([]*tile.Tile, i+1)
		work[i] = make([]*tile.Tile, i+1)
		for j := 0; j <= i; j++ {
			t := tile.New(grid.Dim(i), grid.Dim(j))
			for r := 0; r < t.Rows; r++ {
				for c := 0; c < t.Cols; c++ {
					t.Set(r, c, cholesky.Element(i*grid.NB+r, j*grid.NB+c))
				}
			}
			in[i][j] = t
			work[i][j] = tile.New(t.Rows, t.Cols)
		}
	}
	return &kernelReplay{
		reset: func() { copyTiles(work, in) },
		run: func() opCount {
			var c opCount
			for k := 0; k < nt; k++ {
				kk := work[k][k]
				if err := lapack.Potrf(kk); err != nil {
					panic(err) // the app's matrix is SPD by construction
				}
				c.add(lapack.PotrfFlops(kk.Rows), 2*kk.Rows*kk.Cols)
				for m := k + 1; m < nt; m++ {
					b := work[m][k]
					lapack.Trsm(kk, b)
					c.add(lapack.TrsmFlops(b.Rows, kk.Rows), kk.Rows*kk.Cols+2*b.Rows*b.Cols)
				}
				for m := k + 1; m < nt; m++ {
					a, cc := work[m][k], work[m][m]
					lapack.Syrk(cc, a)
					c.add(lapack.SyrkFlops(cc.Rows, a.Cols), 2*cc.Rows*cc.Cols+a.Rows*a.Cols)
					for j := k + 1; j < m; j++ {
						l, r, cj := work[m][k], work[j][k], work[m][j]
						lapack.GemmNT(cj, l, r)
						c.add(lapack.GemmFlops(cj.Rows, cj.Cols, l.Cols), 2*cj.Rows*cj.Cols+l.Rows*l.Cols+r.Rows*r.Cols)
					}
				}
			}
			return c
		},
	}
}

// bspmmReplay runs every MultiplyAdd of C = A·A, each C tile's chain in
// ascending k as the graph does.
func bspmmReplay(m *sparse.Matrix, a map[[2]int]*tile.Tile) *kernelReplay {
	tasks := m.MulTasks()
	keys := make([][2]int, 0, len(tasks))
	for k := range tasks {
		keys = append(keys, [2]int(k))
	}
	sort.Slice(keys, func(x, y int) bool {
		if keys[x][0] != keys[y][0] {
			return keys[x][0] < keys[y][0]
		}
		return keys[x][1] < keys[y][1]
	})
	cs := make([]*tile.Tile, len(keys))
	for n, k := range keys {
		cs[n] = tile.New(m.Dim(k[0]), m.Dim(k[1]))
	}
	return &kernelReplay{
		reset: func() {
			for _, t := range cs {
				clear(t.Data)
			}
		},
		run: func() opCount {
			var c opCount
			for n, key := range keys {
				ct := cs[n]
				for _, k := range tasks[key] {
					at, bt := a[[2]int{key[0], k}], a[[2]int{k, key[1]}]
					lapack.GemmNN(ct, at, bt)
					c.add(lapack.GemmFlops(ct.Rows, ct.Cols, at.Cols), 2*ct.Rows*ct.Cols+at.Rows*at.Cols+bt.Rows*bt.Cols)
				}
			}
			return c
		},
	}
}

// fwReplay is tiled Floyd-Warshall: per round k, kernel A on the diagonal
// tile, B on its row, C on its column, D on the rest.
func fwReplay(grid tile.Grid, in [][]*tile.Tile) *kernelReplay {
	nt := grid.NT()
	work := make([][]*tile.Tile, nt)
	for i := range work {
		work[i] = make([]*tile.Tile, nt)
		for j := range work[i] {
			work[i][j] = tile.New(in[i][j].Rows, in[i][j].Cols)
		}
	}
	// panel is kernel B or C: c is updated in place against the diagonal
	// tile d.
	panel := func(c, d *tile.Tile) (float64, int) {
		return lapack.MinPlusFlops(c.Rows, c.Cols, d.Cols), 2*c.Rows*c.Cols + d.Rows*d.Cols
	}
	return &kernelReplay{
		reset: func() { copyTiles(work, in) },
		run: func() opCount {
			var c opCount
			for k := 0; k < nt; k++ {
				d := work[k][k]
				lapack.FWKernelA(d)
				c.add(lapack.MinPlusFlops(d.Rows, d.Cols, d.Cols), 2*d.Rows*d.Cols)
				for j := 0; j < nt; j++ {
					if j != k {
						lapack.FWKernelB(work[k][j], d)
						c.add(panel(work[k][j], d))
					}
				}
				for i := 0; i < nt; i++ {
					if i != k {
						lapack.FWKernelC(work[i][k], d)
						c.add(panel(work[i][k], d))
					}
				}
				for i := 0; i < nt; i++ {
					for j := 0; j < nt; j++ {
						if i != k && j != k {
							cij, aik, bkj := work[i][j], work[i][k], work[k][j]
							lapack.FWKernelD(cij, aik, bkj)
							c.add(lapack.MinPlusFlops(cij.Rows, cij.Cols, aik.Cols), 2*cij.Rows*cij.Cols+aik.Rows*aik.Cols+bkj.Rows*bkj.Cols)
						}
					}
				}
			}
			return c
		},
	}
}

func copyTiles(dst, src [][]*tile.Tile) {
	for i := range src {
		for j := range src[i] {
			copy(dst[i][j].Data, src[i][j].Data)
		}
	}
}
