package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"ibis/internal/audit"
	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/iosched"
	"ibis/internal/mapreduce"
	"ibis/internal/scale"
	"ibis/internal/sim"
	"ibis/internal/storage"
	"ibis/internal/trace"
	"ibis/internal/workloads"
)

// Fixed workload shapes. Only the seed varies between runs.
const (
	// corunScale is the data scale of the Fig03-class co-run: large
	// enough that one run takes about half a second on the single
	// engine, small enough for several repetitions per benchmark run.
	corunScale = 0.25
	// workers is the fabric parallelism of every sharded workload.
	workers = 2
	// traceCapacity is the per-shard trace ring of the observed co-run,
	// as in experiments.ShardsOnce.
	traceCapacity = 1 << 15

	hollowNodes   = 200
	hollowTenants = 1000
	hollowHorizon = 10
	// hollowAuditEvery samples about 16 of the 200 nodes, as the scale
	// experiments do.
	hollowAuditEvery = hollowNodes / 16
	hollowPartitions = 4
)

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	// seed is the default seed: the one the paper-reproduction code
	// uses, experiments.Options.Seed (DFS placement) for the co-runs and
	// scale.Config.Seed (the population) for the hollow runs.
	seed int64
	// run executes the workload once at the given seed, timing the
	// calls it makes into each layer. With ref set it runs the untimed
	// reference variant the timed runs are checked against: workers=1
	// for the sharded workloads, and the audited single engine for
	// corun-serial (whose timed runs carry no auditor).
	run func(seed int64, ref bool) (*sample, error)
	// regime names the audit checks that must have run (count > 0) for
	// the workload's correctness check not to pass vacuously.
	regime []string
}

var allWorkloads = []workload{
	{
		name: "corun-serial",
		why:  "paper-figure path on the single engine: device model, SFQ(D2), MapReduce and DFS do the work; no fabric, federation or observation",
		seed: 42,
		run: func(seed int64, ref bool) (*sample, error) {
			return runCorun(corunConfig{seed: seed, audit: ref})
		},
		regime: corunRegime,
	},
	{
		name: "corun-sharded-observed",
		why:  "same jobs on the 11-shard fabric at 2 workers with trace ring and deferred audit: fabric barriers, messaging and observation finish",
		seed: 42,
		run: func(seed int64, ref bool) (*sample, error) {
			return runCorun(corunConfig{seed: seed, workers: workersFor(ref), audit: true, trace: true})
		},
		regime: corunRegime,
	},
	{
		name: "hollow-uncoordinated",
		why:  "200 hollow nodes, 1000 tenants under SFQ(D), no broker: scheduler tagging and dispatch plus fabric windows over 201 shards",
		seed: 1,
		run: func(seed int64, ref bool) (*sample, error) {
			return runHollow(hollowConfig(uint64(seed), workersFor(ref), 0))
		},
		regime: []string{"proportional-share"},
	},
	{
		name: "hollow-federated",
		why:  "the same population coordinated through 4 partition brokers and a root: differs from hollow-uncoordinated only in the broker plane",
		seed: 1,
		run: func(seed int64, ref bool) (*sample, error) {
			return runHollow(hollowConfig(uint64(seed), workersFor(ref), hollowPartitions))
		},
		regime: []string{"share-federated", "federation-conservation"},
	},
}

// corunRegime is what the audit checks on the coordinated co-run: the
// SFQ tag and dispatch invariants on every scheduler, and broker
// service conservation. Its flows are not continuously backlogged
// together, so no proportional-share window qualifies.
var corunRegime = []string{"tag-consistency", "work-conservation", "broker-conservation"}

// workersFor is the fabric parallelism of a sharded workload's timed
// runs, or 1 for its reference.
func workersFor(ref bool) int {
	if ref {
		return 1
	}
	return workers
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is the outcome of one execution of a workload.
type sample struct {
	// wall is host seconds from the first constructor call until the
	// results are in hand; setup the part before the first event runs.
	wall, setup float64
	// layer holds the per-layer values, keyed by metric name: host
	// seconds of each layer call, and the layers' counters.
	layer map[string]float64
	// digest fingerprints the simulated outputs; equal digests mean
	// identical runs.
	digest string
	// attempted operations (jobs or I/O requests) and those that did
	// not complete.
	attempted, incomplete uint64
	// checks counts evaluated audit invariants by name; violations is
	// the number that failed.
	checks     map[string]uint64
	violations uint64
	// finish, when set, completes the outputs after the timed part:
	// the trace digest export, which wall excludes.
	finish func() error
}

// complete runs s.finish once and drops it, so a kept sample does not
// keep the run's model alive.
func (s *sample) complete() error {
	f := s.finish
	s.finish = nil
	if f == nil {
		return nil
	}
	return f()
}

func newSample() *sample {
	return &sample{layer: map[string]float64{}}
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// corunConfig selects one variant of the Fig03-class co-run.
type corunConfig struct {
	seed int64
	// workers > 0 runs on the sharded fabric; 0 on the single engine.
	workers int
	// audit attaches the invariant auditor (deferred when sharded);
	// trace attaches the request-lifecycle trace ring.
	audit, trace bool
}

// corunSpecs are the Fig03-class pair, built from public specs the
// way experiments.wordCount and experiments.teraSortContender build
// them: WordCount on 50 GB and the sustained 200 GB TeraSort, each
// pinned to half of the cluster's cores and memory.
func corunSpecs(scale float64) []mapreduce.JobSpec {
	wc := workloads.WordCountSpec(50e9*scale, 6)
	ts := workloads.TeraSortSpec(200e9*scale, 24)
	var out []mapreduce.JobSpec
	for _, s := range []mapreduce.JobSpec{wc, ts} {
		s.Weight = 1
		s.CPUQuota = 48
		s.Pool = s.Name
		out = append(out, s)
	}
	return out
}

// corunPoolMemGB is each pinned pool's memory: half of the 192 GB task
// memory.
const corunPoolMemGB = 96

// ioCell is one node's I/O completion tally. Completions fire on the
// node's own shard, so each cell has a single writer.
type ioCell struct {
	requests, peak int
	bytes          float64
}

// runCorun assembles the co-run from the public constructors the
// experiment harness uses (cluster, dfs, mapreduce, audit, trace),
// runs it and times each layer call. With cfg.trace the digest is the
// sha256 of the trace's JSONL export (as in experiments.ShardsOnce),
// computed by s.finish; otherwise it hashes the job results.
func runCorun(cfg corunConfig) (*sample, error) {
	s := newSample()
	t0 := time.Now()
	disk := storage.HDDSpec()
	ccfg := cluster.Config{
		HDFSDisk:   disk,
		LocalDisk:  disk,
		Policy:     cluster.SFQD2,
		SFQDepth:   4,
		Coordinate: true,
	}
	var cl *cluster.Cluster
	var err error
	if cfg.workers > 0 {
		cl, err = cluster.NewSharded(ccfg, 0, sim.FabricOptions{Workers: cfg.workers})
	} else {
		cl, err = cluster.New(sim.NewEngine(), ccfg)
	}
	if err != nil {
		return nil, err
	}
	s.layer["cluster.build_s"] = since(t0)

	t := time.Now()
	nn := dfs.NewNamenode(dfs.Config{
		Nodes:      len(cl.Nodes),
		BlockSize:  dfs.DefaultBlockSize * corunScale,
		Seed:       cfg.seed,
		Partitions: len(cl.MetaShards()),
	})
	s.layer["dfs.build_s"] = since(t)

	var shTrace *trace.Sharded
	var tracer *trace.Tracer
	var auditor *audit.Auditor
	var deferred *audit.Deferred
	sharded := cfg.workers > 0
	if cfg.trace {
		if sharded {
			shTrace = trace.NewSharded(len(cl.Nodes)+1, traceCapacity)
		} else {
			tracer = trace.New(traceCapacity)
		}
	}
	if cfg.audit {
		auditor = audit.New(audit.Options{})
		if sharded {
			deferred = audit.NewDeferred(auditor, len(cl.Nodes)+1)
		}
		auditor.AttachBroker(cl.Broker)
	}
	if cfg.trace || cfg.audit {
		cl.Instrument(func(node int, dev string, sched iosched.Scheduler) iosched.Probe {
			var ps []iosched.Probe
			switch {
			case shTrace != nil:
				ps = append(ps, shTrace.Probe(node+1, node, trace.DeviceKindOf(dev)))
			case tracer != nil:
				ps = append(ps, tracer.Probe(node, trace.DeviceKindOf(dev)))
			}
			switch {
			case deferred != nil:
				ps = append(ps, deferred.Probe(node+1, node, dev, sched))
			case auditor != nil:
				ps = append(ps, auditor.Probe(node, dev, sched))
			}
			return iosched.MultiProbe(ps...)
		})
	}
	cells := make([]ioCell, len(cl.Nodes))
	cl.SetIOObserver(func(node int, req *iosched.Request, _ float64) {
		c := &cells[node]
		n := cl.Nodes[node]
		c.requests++
		c.bytes += req.Size
		out := n.HDFSSched.Queued() + n.HDFSSched.InFlight() + n.LocalSched.Queued() + n.LocalSched.InFlight()
		if out > c.peak {
			c.peak = out
		}
	})

	t = time.Now()
	rt := mapreduce.NewRuntime(cl.Eng, cl, nn, mapreduce.Config{
		ChunkBytes:         2e6,
		ShuffleBufferBytes: 2e9 * corunScale,
	})
	for _, spec := range corunSpecs(corunScale) {
		rt.DefinePool(spec.Pool, spec.CPUQuota, corunPoolMemGB)
		if _, err := rt.Submit(spec, 0); err != nil {
			return nil, err
		}
	}
	s.layer["mapreduce.submit_s"] = since(t)
	s.setup = since(t0)

	t = time.Now()
	if sharded {
		cl.Fabric().RunUntil(math.Inf(1))
	} else {
		cl.Eng.Run()
	}
	s.layer["sim.run_s"] = since(t)

	if auditor != nil {
		t = time.Now()
		if deferred != nil {
			deferred.Finish()
		} else {
			auditor.Finish()
		}
		s.layer["audit.finish_s"] = since(t)
	}
	if shTrace != nil {
		t = time.Now()
		tracer = shTrace.Merge()
		s.layer["trace.merge_s"] = since(t)
	}
	s.wall = since(t0)

	makespan, tasks := 0.0, 0
	h := fnv.New64a()
	for _, j := range rt.Jobs() {
		s.attempted++
		if !j.Done() {
			s.incomplete++
			continue
		}
		r := j.Result()
		makespan = math.Max(makespan, r.EndTime)
		tasks += j.NumMaps() + j.NumReduces()
		fmt.Fprintf(h, "%s %v %v %v %v\n", r.Name, r.SubmitTime, r.StartTime, r.MapDoneTime, r.EndTime)
	}
	var requests, peak int
	var ioBytes float64
	for _, c := range cells {
		requests += c.requests
		ioBytes += c.bytes
		peak = max(peak, c.peak)
	}
	s.layer["mapreduce.tasks"] = float64(tasks)
	s.layer["mapreduce.makespan_s"] = makespan
	s.layer["iosched.requests"] = float64(requests)
	s.layer["iosched.peak_in_flight"] = float64(peak)
	s.layer["storage.bytes"] = ioBytes
	s.layer["broker.exchange_bytes"] = float64(cl.CentralizedBaselineBytes())
	if sharded {
		f := cl.Fabric()
		st := f.Stats()
		s.layer["sim.events"] = float64(f.Fired())
		s.layer["sim.fabric.windows"] = float64(st.Windows)
		s.layer["sim.fabric.messages"] = float64(st.Messages)
		ev, busy := f.Occupancy()
		shardRoles(s, ev, busy, len(cl.Nodes), 0, cfg.workers)
	} else {
		s.layer["sim.events"] = float64(cl.Eng.Fired())
	}
	if auditor != nil {
		s.checks = auditor.Checks()
		s.violations = auditor.ViolationCount()
	}
	events := uint64(s.layer["sim.events"])
	s.digest = fmt.Sprintf("%016x/%d", h.Sum64(), events)
	if tracer != nil {
		s.layer["trace.records"] = float64(tracer.Len())
		s.finish = func() error {
			t := time.Now()
			sum := sha256.New()
			bw := bufio.NewWriterSize(sum, 1<<16)
			if err := tracer.WriteJSONL(bw); err != nil {
				return fmt.Errorf("exporting trace: %w", err)
			}
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("exporting trace: %w", err)
			}
			s.layer["trace.export_s"] = since(t)
			s.digest = fmt.Sprintf("%x/%d", sum.Sum(nil)[:8], events)
			return nil
		}
	}
	return s, nil
}

// shardRoles splits per-shard occupancy by role, following the
// layout of cluster.NewSharded: shard 0 is the coordinator, then one
// shard per node, then federation partitions, then metadata shards.
// It also derives the fabric's idle fraction from the busy time.
func shardRoles(s *sample, events []uint64, busy []float64, nodes, partitions, workers int) {
	role := func(i int) string {
		switch {
		case i == 0:
			return "coord"
		case i <= nodes:
			return "node"
		case i <= nodes+partitions:
			return "partition"
		}
		return "meta"
	}
	total := 0.0
	for i := range events {
		r := role(i)
		s.layer["sim.shard."+r+"_events"] += float64(events[i])
		s.layer["sim.shard."+r+"_busy_s"] += busy[i]
		total += busy[i]
	}
	if run := s.layer["sim.run_s"]; run > 0 {
		s.layer["sim.fabric.idle_frac"] = 1 - total/(float64(workers)*run)
	}
}

// hollowConfig is the population of experiments.DefaultFederationSpec
// (200 nodes, 1000 tenants, 10 s horizon, audit on about 16 nodes)
// under SFQ(D), federated over that many partition brokers when
// partitions > 0 and uncoordinated otherwise.
func hollowConfig(seed uint64, w, partitions int) scale.Config {
	return scale.Config{
		Nodes:            hollowNodes,
		Tenants:          hollowTenants,
		AppsPerTenant:    1,
		Replicas:         3,
		Seed:             seed,
		Horizon:          hollowHorizon,
		Policy:           cluster.SFQD,
		Coordinate:       partitions > 0,
		Partitions:       partitions,
		Workers:          w,
		Audit:            true,
		AuditSampleEvery: hollowAuditEvery,
	}
}

// runHollow runs one scale.Run. The harness exposes only its simulate
// span (Stats.WallSeconds), so setup is the call's wall time minus that
// span, and it includes the post-run audit replay and result merge.
func runHollow(cfg scale.Config) (*sample, error) {
	s := newSample()
	t0 := time.Now()
	rep, err := scale.Run(cfg)
	s.wall = since(t0)
	if rep == nil {
		// A report with an error means requests never completed; that
		// shows in s.incomplete and fails the completion check.
		return nil, err
	}
	st := rep.Stats
	s.setup = s.wall - st.WallSeconds
	s.layer["sim.run_s"] = st.WallSeconds
	s.attempted = st.Submitted
	s.incomplete = st.Submitted - st.Completed
	s.checks = rep.AuditChecks
	s.violations = uint64(rep.Violations)
	s.digest = fmt.Sprintf("%016x/%d", st.Digest, st.Events)
	s.layer["sim.events"] = float64(st.Events)
	s.layer["workloads.generate_s"] = timeGenerate(cfg)
	s.layer["iosched.requests"] = float64(st.Submitted)
	s.layer["iosched.peak_in_flight"] = float64(st.PeakInFlight)
	s.layer["iosched.fairness_max_ratio"] = st.FairnessMaxRatio
	s.layer["storage.bytes"] = st.BytesServed
	s.layer["broker.exchange_bytes"] = float64(st.BaselineBytes)
	s.layer["broker.fed_syncs"] = float64(st.FedSyncs)
	s.layer["broker.fed_bytes"] = float64(st.FedUpBytes + st.FedDownBytes)
	shardRoles(s, st.ShardLoad.Events, st.ShardLoad.Busy, cfg.Nodes, st.Partitions, cfg.Workers)
	return s, nil
}

// timeGenerate times the population generation scale.Run performs,
// by calling the generator again with the same configuration (outside
// the timed call).
func timeGenerate(cfg scale.Config) float64 {
	t := time.Now()
	workloads.Generate(workloads.PopulationConfig{
		Tenants:       cfg.Tenants,
		AppsPerTenant: cfg.AppsPerTenant,
		Seed:          cfg.Seed,
		Nodes:         cfg.Nodes,
		Replicas:      cfg.Replicas,
		LoadFactor:    cfg.LoadFactor,
	})
	return since(t)
}
