package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"ibis/internal/cluster"
	"ibis/internal/experiments"
	"ibis/internal/trace"
)

// digestOf is the trace digest experiments.ShardsOnce reports.
func digestOf(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%x", sum[:8])
}

func completed(t *testing.T, s *sample) *sample {
	t.Helper()
	if err := s.complete(); err != nil {
		t.Fatal(err)
	}
	return s
}

// The co-runs are composed from public constructors rather than through
// experiments.Run, so pin them to the harness: same trace digest, same
// makespan and event count for the same options.
func TestComposedCorunMatchesHarness(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		row, err := experiments.ShardsOnce(corunScale, workers)
		if err != nil {
			t.Fatal(err)
		}
		s, err := runCorun(corunConfig{seed: 42, workers: workers, audit: true, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		completed(t, s)
		if want := fmt.Sprintf("%s/%d", row.Digest, row.Events); s.digest != want {
			t.Errorf("digest %s, harness %s", s.digest, want)
		}
		if got := s.layer["mapreduce.makespan_s"]; got != row.Duration {
			t.Errorf("makespan %v, harness %v", got, row.Duration)
		}
		if s.violations != row.Violations {
			t.Errorf("violations %d, harness %d", s.violations, row.Violations)
		}
	})
	t.Run("serial", func(t *testing.T) {
		var entries []experiments.Entry
		for _, spec := range corunSpecs(corunScale) {
			entries = append(entries, experiments.Entry{Spec: spec, PoolCores: spec.CPUQuota, PoolMemGB: corunPoolMemGB})
		}
		res, err := experiments.Run(experiments.Options{
			Scale:         corunScale,
			Policy:        cluster.SFQD2,
			Coordinate:    true,
			Seed:          42,
			TraceCapacity: traceCapacity,
		}, entries)
		if err != nil {
			t.Fatal(err)
		}
		s, err := runCorun(corunConfig{seed: 42, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		completed(t, s)
		if want := fmt.Sprintf("%s/%d", digestOf(t, res.Trace), res.EventsFired); s.digest != want {
			t.Errorf("digest %s, harness %s", s.digest, want)
		}
		if got := s.layer["mapreduce.makespan_s"]; got != res.Duration {
			t.Errorf("makespan %v, harness %v", got, res.Duration)
		}
		// The timed corun-serial variant runs without trace or audit;
		// observation must not change what it simulates.
		plain, err := runCorun(corunConfig{seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if plain.layer["mapreduce.makespan_s"] != res.Duration || plain.layer["sim.events"] != float64(res.EventsFired) {
			t.Errorf("unobserved run: makespan %v events %v, harness %v %v",
				plain.layer["mapreduce.makespan_s"], plain.layer["sim.events"], res.Duration, res.EventsFired)
		}
	})
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must list exactly the workloads and metrics this
// program runs and prints, under names of the allowed characters.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !namePattern.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q does not match %s", n, namePattern)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: json %q, program %q (or its why differs)", i, w.Name, allWorkloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		p := endToEnd[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != p.bound {
			t.Errorf("end-to-end %d: json %+v, program %+v", i, m, p)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer %d: json %+v, program %+v", i, m, p)
		}
	}
	for _, b := range cpuBuckets() {
		if !seen[cpuMetric(b)] {
			t.Errorf("attribution bucket %s has no per-layer metric", b)
		}
	}
}

// The last output line carries exactly the metrics of the run's mode.
func TestSummaryKeys(t *testing.T) {
	s := newSample()
	r := &result{w: allWorkloads[0], reps: []rep{{sample: s}}, profiled: []rep{{sample: s}}}
	for _, traced := range []bool{false, true} {
		r.traced = traced
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		got := r.summary().Metrics
		if len(got) != len(specs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(got), len(specs))
		}
		for _, m := range specs {
			if got[m.name].Unit != m.unit {
				t.Errorf("traced=%v: metric %s missing or unit %q", traced, m.name, got[m.name].Unit)
			}
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"sort.insertionSort", "ibis/internal/broker.(*Broker).Apps", "ibis/internal/sim.(*Engine).Run"}, "broker"},
		{[]string{"runtime.mapassign", "main.runCorun.func2", "ibis/internal/cluster.(*Cluster).SetIOObserver.func1"}, "other"},
		{[]string{"ibis/internal/metrics.(*Distribution).Add", "ibis/internal/scale.Run"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcBucket},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
		{[]string{"ibis/internal/sim.(*Fabric).startWorkers.func1"}, "sim"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// profiledRun runs w once under the CPU profiler and returns the
// sample and the raw profile.
func profiledRun(t *testing.T, w workload, seed int64) (*sample, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := w.run(seed, false)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	return completed(t, s), buf.Bytes()
}

// Every CPU sample lands in exactly one bucket, so the shares sum to 1.
func TestCPUSharesSumToOne(t *testing.T) {
	w, _ := lookupWorkload("hollow-uncoordinated")
	_, prof := profiledRun(t, w, 1)
	p, err := decodeProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.strings[st] == "cpu" {
			vi = i
		}
	}
	total := 0.0
	for _, s := range p.samples {
		total += float64(s.values[vi]) / 1e9
	}
	if total == 0 {
		t.Fatal("profile holds no CPU samples")
	}
	byBucket, err := attributeCPU(prof)
	if err != nil {
		t.Fatal(err)
	}
	shares := 0.0
	for _, b := range cpuBuckets() {
		shares += byBucket[b] / total
	}
	if len(byBucket) != len(cpuBuckets()) || math.Abs(shares-1) > 1e-9 {
		t.Errorf("shares over %d buckets sum to %v, want 1 over %d", len(byBucket), shares, len(cpuBuckets()))
	}
	if byBucket["iosched"] == 0 || byBucket["mapreduce"] != 0 {
		t.Errorf("hollow run attributed iosched=%v mapreduce=%v", byBucket["iosched"], byBucket["mapreduce"])
	}
}

// The traced run must measure the same simulation as the untraced one.
func TestProfilingLeavesOutputsUnchanged(t *testing.T) {
	for _, name := range []string{"corun-serial", "hollow-uncoordinated"} {
		w, _ := lookupWorkload(name)
		plain, err := w.run(w.seed, false)
		if err != nil {
			t.Fatal(err)
		}
		completed(t, plain)
		traced, _ := profiledRun(t, w, w.seed)
		if plain.digest != traced.digest {
			t.Errorf("%s: digest %s unprofiled, %s profiled", name, plain.digest, traced.digest)
		}
		for _, m := range []string{"mapreduce.makespan_s", "iosched.fairness_max_ratio", "iosched.requests", "storage.bytes"} {
			if plain.layer[m] != traced.layer[m] {
				t.Errorf("%s: %s %v unprofiled, %v profiled", name, m, plain.layer[m], traced.layer[m])
			}
		}
	}
}

// The output checks must fail on bad outputs, not only pass on good ones.
func TestChecksReportFailures(t *testing.T) {
	w, _ := lookupWorkload("hollow-federated")
	ref := &sample{digest: "a/1", checks: map[string]uint64{"share-federated": 3, "federation-conservation": 2}}
	if f := checkSample(ref, ref); len(f) != 0 || len(regimeFailures(w, ref)) != 0 {
		t.Fatalf("clean sample failed: %v %v", f, regimeFailures(w, ref))
	}
	bad := &sample{digest: "b/1", attempted: 10, incomplete: 1, violations: 2, checks: map[string]uint64{"share-federated": 3}}
	got := strings.Join(append(checkSample(bad, ref), regimeFailures(w, bad)...), "; ")
	for _, want := range []string{"completed", "audit-clean", "digest-matches-reference", "audit-regime (federation-conservation"} {
		if !strings.Contains(got, want) {
			t.Errorf("failures %q do not name %s", got, want)
		}
	}
}

// A short run of every workload passes all its checks at the default
// seed and prints a parseable result line.
func TestWorkloadsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads {
		r, err := measure(w, w.seed, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.failures) > 0 || r.failed > 0 || r.attempted == 0 {
			t.Errorf("%s: failures %v, %d of %d failed", w.name, r.failures, r.failed, r.attempted)
		}
		line, err := json.Marshal(r.summary())
		if err != nil {
			t.Fatal(err)
		}
		var back summary
		if err := json.Unmarshal(line, &back); err != nil || !back.Correct {
			t.Errorf("%s: result line %s (%v)", w.name, line, err)
		}
	}
}
