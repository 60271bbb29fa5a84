package main

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/trace"
	"repro/ttg"
)

// seeder is what every app package's App offers once its graph is built.
type seeder interface{ Seed() }

// solve instruments one solve from outside the program: each rank's main
// stamps the layer boundaries it crosses (ttg.Run, Build, MakeExecutable,
// Seed, Fence), the first rank to seed and the last rank to leave Fence
// read the process counters, and finish turns the stamps into metrics and
// (when traced) spans. Each rank writes only its own slots; the return of
// ttg.Run orders those writes before finish reads them.
type solve struct {
	id    int
	ranks int
	rec   *recorder
	run   int64   // reserved ID of the solve's run span
	fence []int64 // reserved IDs of each rank's core.fence span

	t0                                            time.Time
	runCall, enter, built, sealed, seedAt, seeded []time.Time
	fenced, left, returned                        []time.Time
	checkStart, checkEnd                          time.Time
	link                                          fabric.PeerStat // TxFrames and WritevCalls summed over ranks and peers

	mu         sync.Mutex
	began      bool
	fencesDone int
	w0, w1     window
	stats      trace.Snapshot
}

func newSolve(id, ranks int, rec *recorder) *solve {
	s := &solve{id: id, ranks: ranks, rec: rec, run: rec.id(), fence: make([]int64, ranks)}
	for r := range s.fence {
		s.fence[r] = rec.id()
	}
	for _, p := range []*[]time.Time{&s.runCall, &s.enter, &s.built, &s.sealed, &s.seedAt, &s.seeded, &s.fenced, &s.left, &s.returned} {
		*p = make([]time.Time, ranks)
	}
	return s
}

// rankMain is the SPMD body every workload hands to ttg.Run.
func (s *solve) rankMain(pc *ttg.Process, build func(*ttg.Graph) seeder) {
	r := pc.Rank()
	s.enter[r] = time.Now()
	g := pc.NewGraph()
	app := build(g)
	s.built[r] = time.Now()
	g.MakeExecutable()
	s.sealed[r] = time.Now()

	s.mu.Lock()
	if !s.began {
		s.began = true
		s.w0 = readCounters()
		s.w0.at = time.Now()
	}
	s.mu.Unlock()
	s.seedAt[r] = time.Now()
	app.Seed()
	s.seeded[r] = time.Now()
	g.Fence()
	s.fenced[r] = time.Now()

	st := pc.Stats()
	s.mu.Lock()
	s.stats = s.stats.Add(st)
	if s.fencesDone++; s.fencesDone == s.ranks {
		at := time.Now()
		s.w1 = readCounters()
		s.w1.at = at
	}
	s.mu.Unlock()
	s.left[r] = time.Now()
}

// runInProcess runs every rank in one ttg.Run over the in-process fabric.
func (s *solve) runInProcess(cfg ttg.Config, build func(*ttg.Graph) seeder) {
	s.t0 = time.Now()
	for r := range s.runCall {
		s.runCall[r] = s.t0
	}
	ttg.Run(cfg, func(pc *ttg.Process) { s.rankMain(pc, build) })
	end := time.Now()
	for r := range s.returned {
		s.returned[r] = end
	}
}

// outcome is one solve's measurements.
type outcome struct {
	setup, solve, cpu  float64
	allocs, allocBytes float64
	st                 trace.Snapshot
	link               fabric.PeerStat
	gd                 goDelta
	layers             map[string]*layerTimes // traced solves only
}

// finish computes the solve's metrics and records its spans.
func (s *solve) finish() outcome {
	var o outcome
	var sealed time.Time
	for _, t := range s.sealed {
		if t.After(sealed) {
			sealed = t
		}
	}
	o.setup = sealed.Sub(s.t0).Seconds()
	o.solve = s.w1.at.Sub(s.w0.at).Seconds()
	o.cpu = s.w1.cpu - s.w0.cpu
	o.allocs = float64(s.w1.mallocs - s.w0.mallocs)
	o.allocBytes = float64(s.w1.bytes - s.w0.bytes)
	o.st = s.stats
	o.link = s.link
	o.gd = goWindow(s.w0, s.w1)

	if s.rec == nil {
		return o
	}
	rec := s.rec
	for r := 0; r < s.ranks; r++ {
		rec.add(0, s.run, spStart, r, s.id, s.runCall[r], s.enter[r], 0)
		rec.add(0, s.run, spBuild, r, s.id, s.enter[r], s.built[r], 0)
		rec.add(0, s.run, spSeal, r, s.id, s.built[r], s.sealed[r], 0)
		rec.add(0, s.run, spSeed, r, s.id, s.seedAt[r], s.seeded[r], 0)
		rec.add(s.fence[r], s.run, spFence, r, s.id, s.seeded[r], s.fenced[r], 0)
		rec.add(0, s.run, spStop, r, s.id, s.left[r], s.returned[r], 0)
	}
	rec.add(0, s.run, spCheck, -1, s.id, s.checkStart, s.checkEnd, 0)
	rec.add(s.run, 0, spRun, -1, s.id, s.t0, s.checkEnd, 0)
	o.layers = summarise(rec.solveSpans(s.id))
	return o
}

// solveTimeout bounds one solve; a solve that outlives it leaves its
// goroutines wedged, so the run stops there.
const solveTimeout = 90 * time.Second

var errTimeout = errors.New("solve timed out")

// runSolve executes and checks one solve. A GC first gives every solve
// the same starting heap.
func runSolve(inst *instance, id int, rec *recorder) (outcome, error) {
	runtime.GC()
	s := newSolve(id, inst.ranks, rec)
	type result struct {
		o   outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		check, err := inst.run(s)
		if err == nil {
			s.checkStart = time.Now()
			err = check()
			s.checkEnd = time.Now()
		}
		var o outcome
		if err == nil {
			o = s.finish()
		}
		done <- result{o, err}
	}()
	select {
	case r := <-done:
		return r.o, r.err
	case <-time.After(solveTimeout):
		return outcome{}, errTimeout
	}
}
