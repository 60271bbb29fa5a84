package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// perLayer derives the per-layer metrics of a traced run. Counter and
// CPU-based figures come from the run's untraced solves, span-based ones
// from its traced solves; e2e holds the untraced medians. A layer a
// workload does not exercise reports 0.
func (b *bench) perLayer(e2e map[string]metric) map[string]metric {
	plain, traced := b.plain, b.traced
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	per := func(f func(outcome) float64) float64 { return median(plain, f) }
	perTask := func(f func(outcome) float64) float64 {
		return median(plain, func(o outcome) float64 { return ratio(f(o), tasks(o)) })
	}
	fromSpans := func(name string, f func(*layerTimes) float64) float64 {
		return median(traced, func(o outcome) float64 {
			if lt := o.layers[name]; lt != nil {
				return f(lt)
			}
			return 0
		})
	}
	dur := func(lt *layerTimes) float64 { return lt.dur }
	cpu, solve := e2e["cpu_s"].Value, e2e["solve_s"].Value
	ntasks := per(tasks)

	put("apps.build_s", "s", fromSpans(spBuild, dur))
	put("apps.seed_s", "s", fromSpans(spSeed, dur))
	put("core.seal_s", "s", fromSpans(spSeal, dur))
	put("core.fence_s", "s", fromSpans(spFence, dur))
	put("core.fence.self_s", "s", fromSpans(spFence, func(lt *layerTimes) float64 { return lt.self }))
	put("runtime.start_s", "s", fromSpans(spStart, dur))
	put("runtime.stop_s", "s", fromSpans(spStop, dur))
	put("run.self_s", "s", fromSpans(spRun, func(lt *layerTimes) float64 { return lt.self }))
	put("check_s", "s", fromSpans(spCheck, dur))

	put("core.tasks", "count", ntasks)
	put("core.match_ops_per_task", "count", perTask(func(o outcome) float64 { return float64(o.st.MatchOps) }))
	put("core.copies_per_task", "count", perTask(func(o outcome) float64 { return float64(o.st.DataCopies) }))
	put("core.copies_avoided_frac", "frac", per(func(o outcome) float64 {
		return ratio(float64(o.st.CopiesAvoided), float64(o.st.CopiesAvoided+o.st.DataCopies))
	}))
	put("sched.steal_frac", "frac", perTask(func(o outcome) float64 { return float64(o.st.TasksStolen) }))

	serial := medianOf(b.replaySecs)
	put("lapack.serial_s", "s", serial)
	put("lapack.gflops", "GF/s", b.replayOps.flops/serial/1e9)
	put("lapack.flops", "flop", b.replayOps.flops)
	put("lapack.bytes_computed", "bytes", b.replayOps.bytes)
	put("lapack.ops_per_byte", "flop/B", ratio(b.replayOps.flops, b.replayOps.bytes))
	put("lapack.share", "frac", serial/cpu)
	put("runtime.overhead_cpu_s", "s", cpu-serial)
	put("runtime.overhead_us_per_task", "us", ratio(cpu-serial, ntasks)*1e6)
	put("runtime.cores_busy", "cores", cpu/solve)

	put("backend.msgs_per_task", "count", perTask(func(o outcome) float64 { return float64(o.st.MsgsSent) }))
	put("backend.msgs_per_packet", "count", per(func(o outcome) float64 {
		return ratio(float64(o.st.MsgsSent), float64(o.st.WirePackets))
	}))
	put("backend.splitmd", "count", per(func(o outcome) float64 { return float64(o.st.SplitMDTransfers) }))
	put("backend.gather_sends", "count", per(func(o outcome) float64 { return float64(o.st.GatherSends) }))
	put("backend.copy_sends", "count", per(func(o outcome) float64 { return float64(o.st.CopySends) }))
	put("backend.view_decodes", "count", per(func(o outcome) float64 { return float64(o.st.ViewDecodes) }))
	put("backend.zero_copy_frac", "frac", per(func(o outcome) float64 {
		return ratio(float64(o.st.BytesZeroCopied), float64(o.st.BytesSent))
	}))
	put("collective.bcast_forwarded", "count", per(func(o outcome) float64 { return float64(o.st.BcastsForwarded) }))
	put("wire_bytes_per_task", "bytes", wireBytesPerTask(plain))
	put("failed_frac", "frac", b.failedFrac())

	count := func(lt *layerTimes) float64 { return float64(lt.count) }
	clipped := func(lt *layerTimes) float64 { return lt.clipped }
	put("fabric.send_calls", "count", fromSpans(spFabSend, count))
	put("fabric.send_s", "s", fromSpans(spFabSend, clipped))
	put("fabric.recv_wait_s", "s", fromSpans(spFabRecv, clipped))
	put("fabric.fetch_calls", "count", fromSpans(spFabFetch, count))
	put("fabric.fetch_s", "s", fromSpans(spFabFetch, clipped))
	put("fabric.tx_bytes", "bytes", fromSpans(spFabSend, func(lt *layerTimes) float64 { return float64(lt.bytes) }))
	put("netfab.frames_per_writev", "count", per(func(o outcome) float64 {
		return ratio(float64(o.link.TxFrames), float64(o.link.WritevCalls))
	}))

	put("go.gc_cycles", "count", per(func(o outcome) float64 { return o.gd.gcCycles }))
	put("go.gc_cpu_frac", "frac", per(func(o outcome) float64 { return ratio(o.gd.gcCPU, o.cpu) }))
	put("go.sched_latency_p50_us", "us", per(func(o outcome) float64 { return o.gd.schedP50Micro }))

	put("trace.overhead_frac", "frac", median(traced, func(o outcome) float64 { return o.solve })/solve-1)

	fails := b.sanity(m)
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "appbench: %s: sanity: %s\n", b.name, f)
	}
	put("sanity_failures", "count", float64(len(fails)))
	printLayers(m)
	return m
}

// sanity checks that the workload still has the property it was chosen
// for (README.md). A failure is reported, not counted as a wrong result:
// it means the workload needs revisiting, not that the program erred.
func (b *bench) sanity(m map[string]metric) []string {
	var fails []string
	want := func(ok bool, format string, args ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}
	v := func(name string) float64 { return m[name].Value }
	want(math.Abs(v("lapack.flops")-b.inst.flops) <= 1e-9*b.inst.flops,
		"replayed %.6g flops, the app counts %.6g", v("lapack.flops"), b.inst.flops)
	fabric, wantFabric := v("fabric.send_calls") > 0, b.name == "fw-tcp"
	want(fabric == wantFabric, "fabric spans present=%v, want %v", fabric, wantFabric)
	switch b.name {
	case "potrf-2r":
		want(v("lapack.share") >= 0.7, "kernel share %.3g is under 0.7", v("lapack.share"))
		want(v("backend.splitmd") > 0, "no payload moved by splitmd")
	case "bspmm-fine":
		want(1-v("lapack.share") >= 0.25, "runtime overhead is %.3g of cpu_s, under 0.25", 1-v("lapack.share"))
		want(v("wire_bytes_per_task") == 0, "%g wire bytes per task, want 0", v("wire_bytes_per_task"))
	case "fw-tcp":
		want(v("backend.splitmd") == 0, "%g payloads moved by splitmd, want 0", v("backend.splitmd"))
	}
	return fails
}

func printLayers(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
