package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"mobweb/internal/framecache"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
)

// layerSnap is every per-layer counter the benchmark reads from outside
// the program: the server registry's counters and probes, and the Go
// runtime's.
type layerSnap struct {
	counters  map[string]int64
	planner   planner.Stats
	frames    framecache.Stats
	probes    map[string]map[string]int64
	gcCPU     float64
	totalCPU  float64
	gcCycles  uint64
	heapAlloc uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func snapshot(reg *obs.Registry) layerSnap {
	s := reg.Snapshot()
	ls := layerSnap{counters: s.Counters, probes: make(map[string]map[string]int64)}
	for name, p := range s.Probes {
		switch v := p.(type) {
		case planner.Stats:
			ls.planner = v
		case framecache.Stats:
			ls.frames = v
		case map[string]int64:
			ls.probes[name] = v
		}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		samples[i].Name = n
	}
	metrics.Read(samples)
	ls.gcCPU = samples[0].Value.Float64()
	ls.totalCPU = samples[1].Value.Float64()
	ls.gcCycles = samples[2].Value.Uint64()
	ls.heapAlloc = samples[3].Value.Uint64()
	return ls
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures the per-layer metrics: an untraced open-loop phase
// (the p99s, and the baseline for the tracing overhead) for 40% of the
// time, a traced one over the first three quarters of the same schedule,
// then the stage replay for what is left. The workload's cache fill, if
// any, runs first and is not timed.
func runTraced(e *env, total time.Duration) (*report, result, error) {
	fillFailed := e.warm(newStream(e.spec, e.seed, streamFill), e.spec.TracedFill)
	plainSpan, tracedSpan := total*4/10, total*3/10
	sched := openSchedule(e.spec, e.seed, plainSpan)
	var plain, traced openResult
	var before, after layerSnap
	docs0 := e.indexDocs.Load()
	err := withWriter(e, plainSpan+tracedSpan, func() {
		plain = e.runOpen(sched, plainSpan, false)
		before = snapshot(e.reg)
		traced = e.runOpen(window(sched, 0, tracedSpan), tracedSpan, true)
		after = snapshot(e.reg)
	})
	if err != nil {
		return nil, result{}, fmt.Errorf("churn writer: %w", err)
	}
	// Set-up indexing counts too: it is most of search's work.
	idx1, docs1 := e.indexNanos.Load(), e.indexDocs.Load()
	rp, err := e.replay(total - plainSpan - tracedSpan)
	if err != nil {
		return nil, result{}, fmt.Errorf("stage replay: %w", err)
	}

	a1, f1 := tally("untraced open-loop", plain.outcomes)
	a2, f2 := tally("traced open-loop", traced.outcomes)
	res := result{Attempted: e.spec.TracedFill + a1 + a2 + rp.fetches, Failed: fillFailed + f1 + f2 + rp.failed}
	if fillFailed > 0 {
		fmt.Printf("# FAILED %d of %d cache-fill fetches\n", fillFailed, e.spec.TracedFill)
	}
	invalid, lag := validity(plain, traced)
	if invalid != "" {
		fmt.Printf("# INVALID open-loop phase: %s\n", invalid)
	}
	rep := newReport()

	// Live metrics from the traced phase, seen from outside the fetch.
	var dials []float64
	var n, rounds, refetched, received, corrupted int
	var wall, readWait time.Duration
	var reads, sockBytes, payload int64
	for _, o := range traced.outcomes {
		if !o.ok {
			continue
		}
		n++
		dials = append(dials, float64(o.dial)/float64(time.Microsecond))
		wall += o.end.Sub(o.start)
		readWait += o.wire.readWait
		reads += o.wire.reads
		sockBytes += o.wire.bytes
		payload += int64(o.payload)
		rounds += o.rounds
		refetched += o.refetched
		received += o.received
		corrupted += o.corrupted
	}
	if n == 0 {
		return nil, result{}, fmt.Errorf("traced phase completed no fetch")
	}
	nf := float64(n)
	perFetch := fmt.Sprintf("traced open loop, %d fetches", n)
	readShare := ratio(float64(readWait), float64(wall))
	rep.add("transport.dial_us_p50", percentile(sortedCopy(dials), 0.5), "us", perFetch)
	rep.add("transport.read_wait_share", readShare, "ratio", "time blocked in client socket Read / fetch wall time")
	rep.add("transport.read_calls_per_fetch", float64(reads)/nf, "count", "")
	rep.add("transport.rounds_per_fetch", float64(rounds)/nf, "count", "")
	rep.add("transport.refetched_per_fetch", float64(refetched)/nf, "count", "intact frames that added nothing")
	rep.add("transport.overhead_bytes_per_fetch", float64(sockBytes-payload)/nf, "B", "socket bytes - frame payload bytes")
	framesOut := after.counters["serve.frames_out"] - before.counters["serve.frames_out"]
	rep.add("transport.overshoot_ratio", ratio(float64(framesOut), float64(received)), "ratio", "server frames out / frames the client counted (serve.frames_out includes fountain frames)")
	rep.add("transport.corrupt_frac", ratio(float64(corrupted), float64(received)), "ratio", "channel model check")

	dp := after.planner
	bp := before.planner
	rep.add("planner.plan_hit_ratio", ratio(float64(dp.Hits-bp.Hits), float64(dp.Hits-bp.Hits+dp.Misses-bp.Misses)), "ratio", "")
	df, bf := after.frames, before.frames
	rep.add("framecache.hit_ratio", ratio(float64(df.Hits-bf.Hits), float64(df.Hits-bf.Hits+df.Misses-bf.Misses)), "ratio", "")
	rep.add("framecache.cooks_per_fetch", float64(df.Cooks-bf.Cooks)/nf, "count", "")
	rep.add("framecache.evictions_per_kfetch", 1000*float64(df.Evictions-bf.Evictions)/nf, "count", "")
	probe := func(layer, key string) float64 {
		return float64(after.probes[layer][key] - before.probes[layer][key])
	}
	rep.add("erasure.parity_rows_per_fetch", probe("erasure", "parity_rows")/nf, "count", "")
	rep.add("core.frame_marshals_per_fetch", probe("core", "frame_marshals")/nf, "count", "")
	rep.add("erasure.inv_hit_ratio", ratio(probe("erasure", "inv_hits"), probe("erasure", "inv_hits")+probe("erasure", "inv_misses")), "ratio", "")
	rep.add("core.decodes_per_fetch", probe("core", "decodes")/nf, "count", "")
	rep.add("core.decode_memo_hit_ratio", ratio(probe("core", "decode_memo_hits"), probe("core", "decode_memo_hits")+probe("core", "decodes")), "ratio", "")
	rep.add("fountain.overshoot_ratio", ratio(probe("fountain", "packets_consumed"), probe("fountain", "packets_needed")), "ratio", "symbols consumed / symbols needed")
	rep.add("fountain.gauss_share", ratio(probe("fountain", "gauss_decodes"), probe("fountain", "gauss_decodes")+probe("fountain", "peel_decodes")), "ratio", "generations that needed the Gaussian fallback")
	rep.add("fountain.inv_hit_ratio", ratio(probe("fountain", "inv_hits"), probe("fountain", "inv_hits")+probe("fountain", "inv_misses")), "ratio", "")
	rep.add("runtime.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio", "")
	rep.add("runtime.gc_per_kfetch", 1000*float64(after.gcCycles-before.gcCycles)/nf, "count", "")
	rep.add("runtime.alloc_bytes_per_fetch", float64(after.heapAlloc-before.heapAlloc)/nf, "B", "")
	rep.add("search.index_ms_per_doc", ms(time.Duration(idx1))/float64(docs1), "ms", fmt.Sprintf("Engine.Add over %d documents: the last set-up and %d churn re-indexes", docs1, docs1-docs0))
	rep.add("bench.gen_lag_p99_ms", lag, "ms", fmt.Sprintf("open-loop validity limit %v", maxGenLag))
	pf, pt := plain.latencies()
	tf, _ := traced.latencies()
	rep.add("bench.trace_overhead", ratio(percentile(tf, 0.5), percentile(pf, 0.5)), "ratio", "traced / untraced fetch_p50_ms")
	rep.add("fetch_p99_ms", percentile(pf, 0.99), "ms", tailNote(len(pf)))
	rep.add("ttfu_p99_ms", percentile(pt, 0.99), "ms", tailNote(len(pt)))

	// Stage replay: self time per stage, and what the live read wait and
	// the client-side stages leave unexplained.
	for _, s := range stages {
		rep.add("stage."+s+".us_per_fetch", rp.selfUS[s]/float64(rp.fetches), "us", rp.note)
	}
	for _, s := range stages {
		rep.add("stage."+s+".share", ratio(rp.selfUS[s], rp.sumUS), "ratio", "of the replayed stage sum")
	}
	meanWallUS := float64(wall) / float64(time.Microsecond) / nf
	rep.add("stage.unattributed.share", 1-readShare-ratio(rp.clientUS/float64(rp.fetches), meanWallUS), "ratio",
		"1 - read_wait_share - replayed client-side stage time / live fetch wall time")
	res.Correct = res.Failed == 0 && invalid == ""
	return rep, res, nil
}
