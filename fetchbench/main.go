// Command fetchbench is the repository's end-to-end benchmark. It runs an
// in-process transmission server with the default options over the
// host's loopback interface, drives it with at most nproc simulated
// mobile users at a time, checks every fetched body and every rendered
// unit against the generated documents, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	fetchbench --workload hot-small --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: an open-loop phase at
// the workload's fixed Poisson rate gives fetch and first-unit latency,
// counted from when each fetch was due, and a closed-loop phase gives
// throughput, CPU and allocations per fetch. With --trace 1 it reports
// the per-layer metrics instead: an untraced and a traced open-loop
// phase, then a single-goroutine replay of a seeded sample of fetches
// through the seven stages of a fetch, with spans written to
// .bench_build/spans/ when the run ends. README.md maps each metric to
// its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fetchbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// metric is one named, united value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header describes the run, in the form every BENCH file of the
// repository shares.
type header struct {
	Go         string       `json:"go"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Seed       int64        `json:"seed"`
	Seconds    int          `json:"seconds"`
	Trace      bool         `json:"trace"`
	Workload   workloadSpec `json:"workload"`
	Network    string       `json:"network"`
}

// maxGenLag is the generator lag p99 above which an open-loop phase is
// invalid: its users did not arrive when the schedule said.
const maxGenLag = 50 * time.Millisecond

// report collects the metrics of one run in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), notes: make(map[string]string)}
}

func (r *report) add(name string, value float64, unit, note string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.notes[name] = note
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("fetchbench", flag.ContinueOnError)
	name := fs.String("workload", "hot-small", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed for the corpus, the schedule and the channel draws")
	seconds := fs.Int("seconds", 36, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run and the stage replay")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	spec, ok := workloads[*name]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames, ", "))
	}
	if *seconds < 1 {
		return 0, fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return 0, fmt.Errorf("--trace must be 0 or 1")
	}
	traced := *trace == 1
	hdr := header{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Trace: traced, Workload: spec,
		Network: "in-process server and clients; every byte crossed this host's loopback TCP interface, not a radio link",
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return 0, err
	}
	fmt.Printf("# header %s\n", hb)

	// Set up several times and keep the last one: setup_s is the median.
	var e *env
	var setups []float64
	for i := 0; i < spec.Setups; i++ {
		if e != nil {
			e.close()
			e = nil
			debug.FreeOSMemory() // so peak RSS is one set-up's, not the sum
		}
		var d time.Duration
		e, d, err = setup(spec, *seed, traced)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer e.close()

	total := time.Duration(*seconds) * time.Second
	var res result
	var rep *report
	if traced {
		rep, res, err = runTraced(e, total)
	} else {
		rep, res, err = runUntraced(e, total)
		if err == nil {
			rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups: corpus build, indexing, server start, %d warm-up fetches", len(setups), spec.Warmup))
		}
	}
	if err != nil {
		return 0, err
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("%-34s %14.6g %-6s %s\n", n, m.Value, m.Unit, rep.notes[n])
	}
	res.Metrics = rep.metrics
	out, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// tally counts failures among outcomes and prints the first few.
func tally(phase string, os []outcome) (attempted, failed int) {
	for _, o := range os {
		if o.start.IsZero() {
			continue // never started: the phase was cut
		}
		attempted++
		if !o.ok {
			failed++
			if failed <= 3 {
				fmt.Printf("# FAILED %s fetch: %s\n", phase, o.why)
			}
		}
	}
	return attempted, failed
}

// latencies returns sorted fetch and first-unit times from due time, in
// ms, over the successful fetches of an open-loop phase. A user that
// slept until the due time is charged from when it woke: the timer's own
// lateness (up to a millisecond, reported as bench.gen_lag_p99_ms) is
// the generator's, not the system's. A user that was still busy when the
// fetch fell due is charged the whole wait.
func (r openResult) latencies() (fetch, ttfu []float64) {
	for i, o := range r.outcomes {
		if !o.ok {
			continue
		}
		from := r.due[i].Add(r.lag[i])
		fetch = append(fetch, ms(o.end.Sub(from)))
		ttfu = append(ttfu, ms(o.firstUnit.Sub(from)))
	}
	return sortedCopy(fetch), sortedCopy(ttfu)
}

// validity explains why open-loop results cannot be reported, or "":
// a window fell too far behind its schedule, or the generator's own
// lateness, pooled over the windows, exceeded maxGenLag at p99.
func validity(opens ...openResult) (string, float64) {
	var lags []float64
	for i, r := range opens {
		if r.overran {
			return fmt.Sprintf("window %d ran more than %v past its schedule", i+1, maxOverrun), 0
		}
		for _, l := range r.lag {
			lags = append(lags, ms(l))
		}
	}
	lag := percentile(sortedCopy(lags), 0.99)
	if lag > ms(maxGenLag) {
		return fmt.Sprintf("generator lag p99 %.2f ms exceeds %v", lag, maxGenLag), lag
	}
	return "", lag
}

// tailNote states the sample behind a p99 and whether it is supported:
// at least ten samples must lie beyond it.
func tailNote(n int) string {
	beyond := n / 100
	if beyond < 10 {
		return fmt.Sprintf("UNSUPPORTED: n=%d leaves %d samples beyond p99", n, beyond)
	}
	return fmt.Sprintf("untraced open loop, n=%d, %d beyond", n, beyond)
}

// withWriter runs fn with the churn writer re-indexing beside it.
func withWriter(e *env, d time.Duration, fn func()) error {
	events := writerSchedule(e.spec, e.seed, d)
	if len(events) == 0 {
		fn()
		return nil
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- e.runWriter(events, stop) }()
	fn()
	close(stop)
	return <-errc
}

// runUntraced measures the end-to-end metrics over Windows cycles, each
// an open-loop window (70% of its time) then a closed-loop one. Timings
// and rates are the median over windows, so a few seconds of a slowed
// host move a run's figures less; counts are pooled over the run. The
// p99s are left to the traced run: on a shared 2-vCPU host they follow
// the host's stalls (amplified by GC stop-the-world pauses) and differed
// by 2-4x between identical runs, too much for any bound.
func runUntraced(e *env, total time.Duration) (*report, result, error) {
	k := e.spec.Windows
	openSpan := total * 7 / 10
	win := openSpan / time.Duration(k)
	closedWin := (total - openSpan) / time.Duration(k)
	sched := openSchedule(e.spec, e.seed, openSpan)
	closedGen := newStream(e.spec, e.seed, streamClosed)
	opens := make([]openResult, k)
	closeds := make([]closedResult, k)
	fs0 := e.planner.FrameStats()
	err := withWriter(e, total, func() {
		for i := range opens {
			opens[i] = e.runOpen(window(sched, i, win), win, false)
			closeds[i] = e.runClosed(closedGen, closedWin)
		}
	})
	if err != nil {
		return nil, result{}, fmt.Errorf("churn writer: %w", err)
	}
	fs1 := e.planner.FrameStats()
	fmt.Printf("# frame cache: %d MiB at start, %d MiB at end; %d evictions, %d invalidations during the run\n",
		fs0.Bytes>>20, fs1.Bytes>>20, fs1.Evictions-fs0.Evictions, fs1.Invalidations-fs0.Invalidations)
	res := result{}
	invalid, lag := validity(opens...)
	fmt.Printf("# generator lag p99 %.3f ms (limit %v)\n", lag, maxGenLag)
	var p50, t50, rates, cpus []float64
	var air, mallocs int64
	airN, done := 0, 0
	for i := range opens {
		a, f := tally("open-loop", opens[i].outcomes)
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
		a, f = tally("closed-loop", closeds[i].outcomes)
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
		fetch, ttfu := opens[i].latencies()
		p50, t50 = append(p50, percentile(fetch, 0.5)), append(t50, percentile(ttfu, 0.5))
		n := 0
		for _, os := range [][]outcome{opens[i].outcomes, closeds[i].outcomes} {
			for _, o := range os {
				if o.ok {
					air += o.wire.bytes
					airN++
				}
			}
		}
		for _, o := range closeds[i].outcomes {
			if o.ok {
				n++
			}
		}
		if n == 0 {
			return nil, result{}, fmt.Errorf("closed-loop window %d completed no fetch", i+1)
		}
		done += n
		mallocs += int64(closeds[i].mallocs)
		rates = append(rates, float64(n)/closeds[i].elapsed.Seconds())
		cpus = append(cpus, ms(closeds[i].cpu)/float64(n))
	}
	fmt.Printf("# windows fetch_p50_ms %s\n# windows ttfu_p50_ms %s\n# windows fetch_per_s %s\n# windows cpu_ms_per_fetch %s\n", fmtList(p50), fmtList(t50), fmtList(rates), fmtList(cpus))
	rep := newReport()
	if invalid != "" {
		fmt.Printf("# INVALID open-loop phase: %s\n", invalid)
	} else {
		perWin := fmt.Sprintf("median of %d open-loop windows at %g/s; ", k, e.spec.OpenRate)
		rep.add("fetch_p50_ms", median(p50), "ms", perWin+"due time to verified body")
		rep.add("ttfu_p50_ms", median(t50), "ms", perWin+"due time to first rendered unit")
	}
	perWin := fmt.Sprintf("median of %d closed-loop windows, %d users, %d fetches", k, runtime.NumCPU(), done)
	rep.add("fetch_per_s", median(rates), "1/s", perWin)
	rep.add("cpu_ms_per_fetch", median(cpus), "ms", "process user+sys CPU; "+perWin)
	rep.add("air_bytes_per_fetch", float64(air)/float64(airN), "B", "bytes read off the client socket, all rounds and drained frames")
	rep.add("allocs_per_fetch", float64(mallocs)/float64(done), "count", "mallocs per fetch, closed loop, client and server")
	rep.add("max_rss_mb", maxRSSMiB(), "MiB", "peak resident set size")
	fmt.Printf("# failed_frac %.6g (%d of %d fetches)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && invalid == ""
	return rep, res, nil
}

// window returns the fetches of schedule window i of length w, with due
// times relative to the window's start.
func window(sched []fetchSpec, i int, w time.Duration) []fetchSpec {
	lo, hi := time.Duration(i)*w, time.Duration(i+1)*w
	var out []fetchSpec
	for _, f := range sched {
		if f.Due >= lo && f.Due < hi {
			f.Due -= lo
			out = append(out, f)
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// fmtList formats per-window values for a diagnostic line.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
