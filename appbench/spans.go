package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark crosses.
const (
	spRun      = "run"           // one solve, bootstrap to checked result
	spStart    = "runtime.start" // ttg.Run call until the rank's main starts
	spBuild    = "apps.build"    // app package Build
	spSeal     = "core.seal"     // Graph.MakeExecutable
	spSeed     = "apps.seed"     // app Seed
	spFence    = "core.fence"    // Graph.Fence
	spStop     = "runtime.stop"  // main returned until ttg.Run returns
	spCheck    = "check"         // the benchmark's result checker
	spFabSend  = "fabric.send"   // Endpoint.Send/SendSegs, credit parking included
	spFabRecv  = "fabric.recv"   // Endpoint.Recv, blocked waiting for a packet
	spFabFetch = "fabric.fetch"  // Endpoint.FetchObject (splitmd payload pull)
)

// span is one timed interval. Rank is -1 for whole-solve spans.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Solve  int    `json:"solve"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced solves pay one nil check per boundary.
type recorder struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records a finished span under a reserved (or fresh, when id is 0)
// ID.
func (r *recorder) add(id, parent int64, name string, rank, solve int, start, end time.Time, bytes int64) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.id()
	}
	s := span{ID: id, Parent: parent, Name: name, Rank: rank, Solve: solve,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)), Bytes: bytes}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// solveSpans returns a copy of the spans of one solve.
func (r *recorder) solveSpans(solve int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Solve == solve {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line, headed by the
// environment record.
func (r *recorder) write(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerTimes summarises one solve's spans per name: the duration and the
// self time (duration minus the part covered by child spans, children
// clipped to their parent) of the rank that spent longest in the span,
// and the total over all spans of the name clipped to their parent.
type layerTimes struct {
	dur, self, clipped float64
	count              int
	bytes              int64
}

func summarise(spans []span) map[string]*layerTimes {
	byID := map[int64]span{}
	children := map[int64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct {
		name string
		rank int
	}
	dur := map[key]float64{}
	self := map[key]float64{}
	out := map[string]*layerTimes{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.count++
		lt.bytes += s.Bytes
		start, end := s.Start, s.End
		if p, ok := byID[s.Parent]; ok {
			start, end = max(start, p.Start), min(end, p.End)
		}
		if end > start {
			lt.clipped += float64(end-start) / 1e9
		}
		k := key{s.Name, s.Rank}
		dur[k] += float64(s.End-s.Start) / 1e9
		self[k] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	for k, d := range dur {
		lt := out[k.name]
		lt.dur = max(lt.dur, d)
		lt.self = max(lt.self, self[k])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range kids {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}
