// Command perfbench is the repository benchmark: it runs one named
// workload repeatedly for a fixed number of seconds, checks every
// run's simulated outputs, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	go run . -workload corun-serial -seed 42 -seconds 15 -trace 0
//
// See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minReps is the fewest timed repetitions per measuring phase, so a
// median exists even when one repetition outlasts the time budget.
const minReps = 3

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", -1, "workload seed (-1 = the workload's default)")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	traced := flag.Int("trace", 0, "1 = per-layer run under CPU profiling")
	commit := flag.String("commit", "unknown", "source commit, for the host fingerprint")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *seed < 0 {
		*seed = w.seed
	}
	fmt.Printf("# host %s\n", hostFingerprint(*commit))
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ",")
}

// rep is one timed repetition with its host-side measurements.
type rep struct {
	*sample
	// cpu is the process CPU seconds of the run (user and system, all
	// threads); peakMB its resident high-water mark.
	cpu, peakMB       float64
	cal               float64
	allocMB, gcCycles float64
	// cpuByModule is the profiled CPU seconds per attribution bucket,
	// profiled repetitions only.
	cpuByModule map[string]float64
}

// result collects a benchmark run.
type result struct {
	w         workload
	seed      int64
	traced    bool
	ref       *sample
	reps      []rep // measured without the profiler
	profiled  []rep
	failures  []string
	attempted uint64
	failed    uint64
}

// measure runs the reference once, untimed, then repeats the workload
// until d has elapsed. A traced run spends the first half without and
// the second half under the CPU profiler.
func measure(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	r := &result{w: w, seed: seed, traced: traced}
	ref, err := w.run(seed, true)
	if err == nil {
		err = ref.complete()
	}
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	r.ref = ref
	for _, f := range append(checkSample(ref, nil), regimeFailures(w, ref)...) {
		r.failures = append(r.failures, "reference: "+f)
	}
	plain := d
	if traced {
		plain = d / 2
	}
	if err := r.loop(plain, false); err != nil {
		return nil, err
	}
	if traced {
		if err := r.loop(d-plain, true); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *result) loop(d time.Duration, profiled bool) error {
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < d; n++ {
		one, err := r.once(profiled)
		if err != nil {
			return err
		}
		fails := checkSample(one.sample, r.ref)
		if one.checks != nil {
			fails = append(fails, regimeFailures(r.w, one.sample)...)
		}
		r.attempted += one.attempted
		if len(fails) > 0 {
			r.failed += one.attempted
			for _, f := range fails {
				r.failures = append(r.failures, fmt.Sprintf("rep %d: %s", n, f))
			}
		} else {
			r.failed += one.incomplete
		}
		if profiled {
			r.profiled = append(r.profiled, one)
		} else {
			r.reps = append(r.reps, one)
		}
	}
	return nil
}

// once runs the workload a single time from a collected heap with its
// memory returned to the OS, so the resident peak belongs to this run.
func (r *result) once(profiled bool) (rep, error) {
	runtime.GC()
	cal := calibrate()
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep{}, fmt.Errorf("starting profiler: %w", err)
		}
	}
	cpu0 := cpuSeconds()
	s, err := r.w.run(r.seed, false)
	cpu := cpuSeconds() - cpu0
	var out rep
	if err == nil {
		out = rep{sample: s, cpu: cpu, peakMB: peakRSSMB(), cal: cal}
		runtime.ReadMemStats(&m1)
		out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		out.gcCycles = float64(m1.NumGC - m0.NumGC)
		err = s.complete()
	}
	if profiled {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return rep{}, err
	}
	if profiled {
		if out.cpuByModule, err = attributeCPU(prof.Bytes()); err != nil {
			return rep{}, err
		}
	}
	return out, nil
}

// checkSample returns the names of the output checks s fails: every
// operation completed, the audit found no violation, and (against a
// reference) the simulated outputs are identical.
func checkSample(s, ref *sample) []string {
	var fails []string
	if s.incomplete > 0 {
		fails = append(fails, fmt.Sprintf("completed (%d of %d operations unfinished)", s.incomplete, s.attempted))
	}
	if s.violations > 0 {
		fails = append(fails, fmt.Sprintf("audit-clean (%d violations)", s.violations))
	}
	if ref != nil && s.digest != ref.digest {
		fails = append(fails, fmt.Sprintf("digest-matches-reference (%s, reference %s)", s.digest, ref.digest))
	}
	return fails
}

// regimeFailures names each audit check the workload claims that did
// not run, so an audit gate cannot pass vacuously.
func regimeFailures(w workload, s *sample) []string {
	var fails []string
	for _, c := range w.regime {
		if s.checks[c] == 0 {
			fails = append(fails, "audit-regime ("+c+" never checked)")
		}
	}
	return fails
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, x := range reps {
		xs[i] = f(x)
	}
	return median(xs)
}

// repMetric reads each host measurement of one repetition: the
// end-to-end metrics and the raw times they are derived from.
var repMetric = map[string]func(rep) float64{
	"wall_cal":    func(x rep) float64 { return x.wall / x.cal },
	"cpu_cal":     func(x rep) float64 { return x.cpu / x.cal },
	"setup_s":     func(x rep) float64 { return x.setup },
	"peak_mem_mb": func(x rep) float64 { return x.peakMB },
	"wall_s":      func(x rep) float64 { return x.wall },
	"cpu_s":       func(x rep) float64 { return x.cpu },
	"cal_s":       func(x rep) float64 { return x.cal },
}

// endToEndValues are the medians over the unprofiled repetitions.
func (r *result) endToEndValues() map[string]float64 {
	v := make(map[string]float64)
	for _, m := range endToEnd {
		v[m.name] = medianOf(r.reps, repMetric[m.name])
	}
	return v
}

// layerValues are medians over the unprofiled repetitions for spans
// and counters, and means over the profiled repetitions for CPU
// attribution.
func (r *result) layerValues() map[string]float64 {
	v := make(map[string]float64)
	for _, m := range perLayer {
		v[m.name] = medianOf(r.reps, func(x rep) float64 { return x.layer[m.name] })
	}
	v["audit.checks"] = medianOf(r.reps, func(x rep) float64 {
		n := 0.0
		for _, c := range x.checks {
			n += float64(c)
		}
		return n
	})
	if v["sim.events"] > 0 {
		v["sim.ns_per_event"] = medianOf(r.reps, func(x rep) float64 {
			return x.layer["sim.run_s"] / x.layer["sim.events"] * 1e9
		})
	}
	for _, h := range []string{"wall_s", "cpu_s", "cal_s"} {
		v["host."+h] = medianOf(r.reps, repMetric[h])
	}
	v["runtime.alloc_mb"] = medianOf(r.reps, func(x rep) float64 { return x.allocMB })
	v["runtime.gc_cycles"] = medianOf(r.reps, func(x rep) float64 { return x.gcCycles })
	for _, b := range cpuBuckets() {
		sum := 0.0
		for _, x := range r.profiled {
			sum += x.cpuByModule[b]
		}
		v[cpuMetric(b)] = sum / float64(len(r.profiled))
	}
	wall := repMetric["wall_s"]
	v["profile.overhead_ratio"] = medianOf(r.profiled, wall) / medianOf(r.reps, wall)
	return v
}

func (r *result) summary() summary {
	out := summary{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]summaryMetric{},
	}
	specs, vals := endToEnd, r.endToEndValues()
	if r.traced {
		specs, vals = perLayer, r.layerValues()
	}
	for _, m := range specs {
		out.Metrics[m.name] = summaryMetric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// print writes the human-readable report: checks, end-to-end metrics
// with their spread, and for a traced run the per-layer table with the
// base of every share.
func (r *result) print(f *os.File) {
	bw := bufio.NewWriter(f)
	defer bw.Flush()
	fmt.Fprintf(bw, "# workload %s seed=%d trace=%d reps=%d profiled-reps=%d\n",
		r.w.name, r.seed, btoi(r.traced), len(r.reps), len(r.profiled))
	fmt.Fprintf(bw, "# why: %s\n", r.w.why)
	if len(r.failures) == 0 {
		fmt.Fprintf(bw, "# checks: all passed (completed, audit-clean, audit-regime %s, digest-matches-reference %s)\n",
			strings.Join(r.w.regime, "+"), r.ref.digest)
	}
	fmt.Fprintf(bw, "# reference audit checks:%s\n", formatChecks(r.ref.checks))
	for _, f := range r.failures {
		fmt.Fprintf(bw, "# CHECK FAILED: %s\n", f)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	// The co-runs count jobs and report their makespan; the hollow runs
	// count requests and report fairness.
	makespan, corun := r.ref.layer["mapreduce.makespan_s"]
	ops := "requests"
	if corun {
		ops = "jobs"
	}
	fmt.Fprintf(bw, "# end-to-end, median [q1 q3] of %d reps (*_cal: per-rep ratio to the calibration kernel's time):\n", len(r.reps))
	for _, name := range []string{"wall_cal", "cpu_cal", "setup_s", "peak_mem_mb", "wall_s", "cpu_s", "cal_s"} {
		q1, q3 := quartiles(r.reps, name)
		fmt.Fprintf(bw, "#   %-20s %12.6g [%.6g %.6g]\n", name, medianOf(r.reps, repMetric[name]), q1, q3)
	}
	fmt.Fprintf(bw, "#   wall_s per rep:")
	for _, x := range r.reps {
		fmt.Fprintf(bw, " %.4g", x.wall)
	}
	fmt.Fprintln(bw)
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(bw, "#   %-20s %12.6g (%d of %d %s)\n", "ops_failed_frac", frac, r.failed, r.attempted, ops)
	if corun {
		fmt.Fprintf(bw, "#   %-20s %12.6g (simulated seconds, deterministic)\n", "sim_makespan_s", makespan)
	} else {
		fmt.Fprintf(bw, "#   %-20s %12.6g (simulated, deterministic)\n", "fairness_max_ratio", r.ref.layer["iosched.fairness_max_ratio"])
		fmt.Fprintf(bw, "#   note: hollow setup_s is scale.Run wall minus its simulate span, so it includes the post-run audit replay\n")
	}
	if !r.traced {
		return
	}
	v := r.layerValues()
	cpuTotal := 0.0
	for _, b := range cpuBuckets() {
		cpuTotal += v[cpuMetric(b)]
	}
	busyTotal := 0.0
	for _, role := range []string{"coord", "node", "partition", "meta"} {
		busyTotal += v["sim.shard."+role+"_busy_s"]
	}
	wall := v["host.wall_s"]
	fmt.Fprintf(bw, "# per-layer, %d plain + %d profiled reps (share = value / base):\n", len(r.reps), len(r.profiled))
	for _, m := range perLayer {
		val := v[m.name]
		var base string
		switch {
		case strings.HasPrefix(m.name, "host."):
		case strings.HasSuffix(m.name, "cpu_s"):
			base = share(val, cpuTotal, "profiled CPU s per rep")
		case strings.HasPrefix(m.name, "sim.shard.") && m.unit == "s":
			base = share(val, busyTotal, "shard busy s")
		case m.unit == "s":
			base = share(val, wall, "wall_s")
		}
		fmt.Fprintf(bw, "#   %-28s %14.6g %-6s %s\n", m.name, val, m.unit, base)
	}
}

func formatChecks(checks map[string]uint64) string {
	if len(checks) == 0 {
		return " none (audit off)"
	}
	names := make([]string, 0, len(checks))
	for n := range checks {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, checks[n])
	}
	return b.String()
}

func share(v, base float64, what string) string {
	if base <= 0 {
		return ""
	}
	return fmt.Sprintf("%6.2f%% of %.4g %s", 100*v/base, base, what)
}

func quartiles(reps []rep, metric string) (float64, float64) {
	xs := make([]float64, len(reps))
	for i, x := range reps {
		xs[i] = repMetric[metric](x)
	}
	sort.Float64s(xs)
	if len(xs) == 0 {
		return 0, 0
	}
	return xs[len(xs)/4], xs[(3*len(xs))/4]
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostFingerprint identifies the machine a number was measured on.
func hostFingerprint(commit string) string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, model)
}

// calSink keeps the calibration's result alive.
var calSink uint64

// calibrate times a fixed CPU and memory kernel that belongs to the
// benchmark: the fastest of three runs, in seconds. No repository code
// runs in it, so no change to the program moves it; it moves with the
// host's speed at that moment, which the *_cal metrics divide out.
func calibrate() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t := time.Now()
		calibrationKernel()
		best = min(best, since(t))
	}
	return best
}

// calibrationKernel hashes, maps, sorts and chases pointers over
// 2^17 keys, the mix of work the simulator does.
func calibrationKernel() {
	x := uint64(0x9e3779b97f4a7c15)
	type node struct {
		next *node
		v    uint64
	}
	keys := make([]uint64, 1<<17)
	m := make(map[uint64]uint64)
	var head *node
	for i := range keys {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		keys[i] = z ^ (z >> 31)
		m[keys[i]&0x3ffff] += keys[i]
		head = &node{head, keys[i]}
	}
	slices.Sort(keys)
	for n := head; n != nil; n = n.next {
		calSink += n.v ^ m[n.v&0x3ffff]
	}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS resets the kernel's resident-set high-water mark of
// this process (Linux clear_refs value 5). Where it is unavailable the
// peak is process-wide instead of per run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
