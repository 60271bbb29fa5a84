package repro

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/netfab"
	"repro/internal/serde"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// Multi-process end-to-end tests for the real-network fabric: the parent
// test re-execs this test binary once per rank (the worker below), the
// workers bootstrap a TCP mesh, run the application to a fence, and dump
// their locally owned result tiles; the parent merges the dumps and
// demands bit-identical float64s against the in-process run of the same
// problem. Bit-identity holds because both applications fix their
// accumulation order by dataflow (Cholesky's k-loop, bspmm's ascending-k
// MultiplyAdd chain), so any divergence means the transport corrupted,
// duplicated, or dropped a payload.

const (
	netWorkerEnv = "TTG_NET_E2E_WORKER" // app name; presence selects worker mode
	netRankEnv   = "TTG_NET_E2E_RANK"
	netSizeEnv   = "TTG_NET_E2E_SIZE"
	netCoordEnv  = "TTG_NET_E2E_COORD"
	netOutEnv    = "TTG_NET_E2E_OUT"
)

// runNetApp executes one application over cfg and returns the result
// tiles delivered to this process (all of them in-process; the local
// rank's share over a fabric).
func runNetApp(app string, cfg ttg.Config) map[[2]int]*tile.Tile {
	var mu sync.Mutex
	results := map[[2]int]*tile.Tile{}
	onResult := func(i, j int, t *tile.Tile) {
		mu.Lock()
		results[[2]int{i, j}] = t
		mu.Unlock()
	}
	switch app {
	case "potrf":
		grid := tile.Grid{N: 256, NB: 64}
		ttg.Run(cfg, func(pc *ttg.Process) {
			g := pc.NewGraph()
			a := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true, OnResult: onResult})
			g.MakeExecutable()
			a.Seed()
			g.Fence()
		})
	case "bspmm":
		spec := sparse.DefaultSpec(24)
		spec.MaxTile = 32
		spec.FuncsMin, spec.FuncsMax = 6, 12
		mat := sparse.Generate(spec)
		ttg.Run(cfg, func(pc *ttg.Process) {
			g := pc.NewGraph()
			a := bspmm.Build(g, bspmm.Options{A: mat, OnResult: onResult})
			g.MakeExecutable()
			a.Seed()
			g.Fence()
		})
	default:
		panic("unknown app " + app)
	}
	return results
}

// TestNetE2EWorker is the per-rank subprocess body, selected via env by
// the parent tests; it skips under a normal test run.
func TestNetE2EWorker(t *testing.T) {
	app := os.Getenv(netWorkerEnv)
	if app == "" {
		t.Skip("subprocess helper: driven by TestNetCholesky/TestNetBspmm")
	}
	rank, _ := strconv.Atoi(os.Getenv(netRankEnv))
	size, _ := strconv.Atoi(os.Getenv(netSizeEnv))
	ep, err := netfab.Bootstrap(netfab.Config{
		Transport: "tcp", Rank: rank, Size: size, Coord: os.Getenv(netCoordEnv),
	})
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	results := runNetApp(app, ttg.Config{Fabric: ep, WorkersPerRank: 2})
	// Run returns after the endpoint's graceful close, which delivers
	// every splitmd release ack; every fetched payload was a receive view
	// whose lease the data tracker must have retired by then.
	if n := ep.RegionCount(); n != 0 {
		t.Fatalf("rank %d: %d splitmd regions still registered after the run", rank, n)
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("rank %d: %d receive views still leased after the run", rank, n)
	}
	if err := writeTiles(os.Getenv(netOutEnv), results); err != nil {
		t.Fatalf("writing tiles: %v", err)
	}
}

// writeTiles dumps result tiles as [u32 i][u32 j][u32 rows][u32 cols]
// followed by rows*cols little-endian float64 bit patterns.
func writeTiles(path string, tiles map[[2]int]*tile.Tile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [16]byte
	for k, tl := range tiles {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(k[0]))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(k[1]))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(tl.Rows))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(tl.Cols))
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		buf := make([]byte, 8*len(tl.Data))
		for i, v := range tl.Data {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readTiles parses a writeTiles dump into key -> float64 bit patterns.
func readTiles(path string) (map[[2]int][]uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[[2]int][]uint64{}
	for off := 0; off < len(raw); {
		if off+16 > len(raw) {
			return nil, fmt.Errorf("truncated tile header at %d", off)
		}
		i := int(binary.LittleEndian.Uint32(raw[off:]))
		j := int(binary.LittleEndian.Uint32(raw[off+4:]))
		n := int(binary.LittleEndian.Uint32(raw[off+8:])) * int(binary.LittleEndian.Uint32(raw[off+12:]))
		off += 16
		if off+8*n > len(raw) {
			return nil, fmt.Errorf("truncated tile payload at %d", off)
		}
		bits := make([]uint64, n)
		for k := range bits {
			bits[k] = binary.LittleEndian.Uint64(raw[off+8*k:])
		}
		out[[2]int{i, j}] = bits
		off += 8 * n
	}
	return out, nil
}

// runNetE2E spawns one worker process per rank over a freshly reserved
// TCP coordinator address, merges their tile dumps, and compares the
// merged result bit-for-bit with the in-process run.
func runNetE2E(t *testing.T, app string, ranks int) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short")
	}
	// Reserve a coordinator port (bind and release; rank 0 rebinds it).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	outs := make([]string, ranks)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		outs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.tiles", r))
		cmd := exec.Command(os.Args[0], "-test.run=^TestNetE2EWorker$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			netWorkerEnv+"="+app,
			netRankEnv+"="+strconv.Itoa(r),
			netSizeEnv+"="+strconv.Itoa(ranks),
			netCoordEnv+"="+coord,
			netOutEnv+"="+outs[r],
		)
		wg.Add(1)
		go func(r int, cmd *exec.Cmd) {
			defer wg.Done()
			if out, err := cmd.CombinedOutput(); err != nil {
				errs[r] = fmt.Errorf("rank %d: %v\n%s", r, err, out)
			}
		}(r, cmd)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	merged := map[[2]int][]uint64{}
	for r := 0; r < ranks; r++ {
		tiles, err := readTiles(outs[r])
		if err != nil {
			t.Fatalf("rank %d dump: %v", r, err)
		}
		for k, bits := range tiles {
			if _, dup := merged[k]; dup {
				t.Fatalf("tile %v produced on two ranks", k)
			}
			merged[k] = bits
		}
	}

	ref := runNetApp(app, ttg.Config{Ranks: 2, WorkersPerRank: 2})
	if len(merged) != len(ref) {
		t.Fatalf("%d tiles over the fabric, %d in-process", len(merged), len(ref))
	}
	for k, tl := range ref {
		bits := merged[k]
		if len(bits) != len(tl.Data) {
			t.Fatalf("tile %v: %d values over the fabric, %d in-process", k, len(bits), len(tl.Data))
		}
		for i, v := range tl.Data {
			if bits[i] != math.Float64bits(v) {
				t.Fatalf("tile %v[%d]: fabric bits %x, in-process %x (%v)",
					k, i, bits[i], math.Float64bits(v), v)
			}
		}
	}
}

func TestNetCholesky2Proc(t *testing.T) { runNetE2E(t, "potrf", 2) }
func TestNetCholesky4Proc(t *testing.T) { runNetE2E(t, "potrf", 4) }
func TestNetBspmm2Proc(t *testing.T)    { runNetE2E(t, "bspmm", 2) }
func TestNetBspmm4Proc(t *testing.T)    { runNetE2E(t, "bspmm", 4) }
