package mapreduce

// The per-task pipeline: one implementation for the single engine and
// the sharded fabric.
//
// A launched task attempt becomes a run struct (mapRun / reduceRun)
// handed to the datanode executing it. The whole data path executes on
// that node's engine: local device submits are direct calls, remote
// reads and replica writes hop node-to-node, and shuffle segments
// stream source→destination without touching the coordinator. The
// coordinator exchanges exactly four kinds of task messages with a run:
// launch, cancel, completion (guarded by the attempt token against
// stale attempts), and the shuffle traffic of a running reduce —
// forwarded segments and the all-maps-done marker. Slot accounting,
// fair-share pumping, preemption and job completion stay with the
// coordinator, folding those completions.
//
// Every such message is a sim.Hop. On the fabric a hop is a timestamped
// inter-shard message costing one lookahead; on a single engine there
// are no shards and a hop is a direct call, so the single-engine event
// order is exactly that of an inline call chain.
//
// Cancellation is message-based for determinism: preempt/restart on
// the coordinator bumps the attempt token immediately (so stale
// completions drop on arrival) and sends a cancel to the run, which
// flips its node-local stopped flag; every node-side continuation is
// guarded by it. There are no cross-shard reads of mutable state in
// either direction — the run takes what it needs at launch, and
// everything else it touches (specs, blocks, share handles, node
// liveness) is immutable for the attempt's lifetime on the fabric.
//
// Input placement runs on the metadata shards (createAsync): each
// namenode partition draws its blocks' replica sets on its own shard
// and the coordinator folds the answers. Output placement needs no
// messages: the writing node asks the namenode directly, which answers
// with a pure keyed draw on a partitioned namenode — the only kind a
// sharded runtime accepts — and with its shared stream on a legacy one.

import (
	"math/rand"

	"ibis/internal/cluster"
	"ibis/internal/dfs"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// toNode runs fn on node n's shard. Coordinator context only.
func (rt *Runtime) toNode(n *cluster.Node, fn func()) {
	sim.Hop(rt.coordShard, n.Shard(), fn)
}

// toCoord runs fn on the coordinator. Node n's shard context only.
func (rt *Runtime) toCoord(n *cluster.Node, fn func()) {
	sim.Hop(n.Shard(), rt.coordShard, fn)
}

// outputKey identifies one task attempt's DFS output for keyed
// placement: (job, kind, task, attempt) — unique per attempt, so the
// placement is deterministic no matter when or where it is computed.
func outputKey(jobSeq int, kind uint64, index, attempt int) uint64 {
	return uint64(jobSeq)<<32 | kind<<28 | uint64(index)<<8 | uint64(attempt)&0xff
}

const (
	keyKindMap    = 1
	keyKindReduce = 2
)

// createAsync materializes a job input file across the metadata
// shards: each namenode partition draws the placements for the blocks
// it owns on its own shard, and the coordinator publishes the file
// once every owner has answered. One namenode-RPC round trip of
// virtual latency, no serialization on shard 0, and — because each
// partition sees its blocks in index order — the exact layout
// dfs.Create would have produced. size must be positive.
func (rt *Runtime) createAsync(name string, size float64, done func(*dfs.File)) {
	nn := rt.nn
	sizes := nn.Shape(size)
	parts := nn.Partitions()
	owned := make([][]int, parts) // block indices per partition, ascending
	for i := range sizes {
		p := nn.Owner(name, i)
		owned[p] = append(owned[p], i)
	}
	replicas := make([][]int, len(sizes))
	remaining := 0
	for p := 0; p < parts; p++ {
		if len(owned[p]) > 0 {
			remaining++
		}
	}
	publish := func() {
		f, err := nn.Publish(name, sizes, replicas)
		if err != nil {
			panic(err) // job sequence numbers are unique; collision is a bug
		}
		done(f)
	}
	for p := 0; p < parts; p++ {
		idxs := owned[p]
		if len(idxs) == 0 {
			continue
		}
		p := p
		var ms *sim.Shard
		if len(rt.metaShards) > 0 {
			ms = rt.metaShards[p%len(rt.metaShards)]
		}
		sim.Hop(rt.coordShard, ms, func() {
			sets := nn.PlacePartition(p, len(idxs))
			sim.Hop(ms, rt.coordShard, func() {
				for k, i := range idxs {
					replicas[i] = sets[k]
				}
				if remaining--; remaining == 0 {
					publish()
				}
			})
		})
	}
}

// ioOn issues one tagged request on node n for this job. The caller
// runs on n's shard and done fires there. The weight resolves through
// the cluster's share tree at tag time — the job only carries its
// identity. A rejected request (the spec was validated at submission,
// so this indicates control-plane misuse, e.g. the job's tree node was
// removed mid-run) fails the job on the coordinator rather than
// wedging it waiting for a completion that will never come.
func (j *Job) ioOn(n *cluster.Node, class iosched.Class, size float64, done func()) {
	err := n.SubmitIO(&iosched.Request{
		App:    j.App,
		Class:  class,
		Size:   size,
		OnDone: func(float64) { done() },
	})
	if err != nil {
		j.rt.toCoord(n, j.fail)
	}
}

// sendOn ships size bytes of this job's data from src to dst; done
// fires on dst's shard. A rejected transfer fails the job like a
// rejected submit.
func (j *Job) sendOn(src, dst *cluster.Node, size float64, done func()) {
	if err := src.SendTagged(dst, j.App, size, done); err != nil {
		j.rt.toCoord(src, j.fail)
	}
}

// attemptRun is what every task attempt holds on its node: identity,
// the node's engine, and the stopped flag that a cancel message — or
// the attempt's own completion — raises.
type attemptRun struct {
	rt      *Runtime
	job     *Job
	att     int
	node    *cluster.Node
	eng     *sim.Engine
	stopped bool
}

func (rt *Runtime) newAttempt(job *Job, att int, node *cluster.Node) attemptRun {
	return attemptRun{rt: rt, job: job, att: att, node: node, eng: rt.cluster.NodeEngine(node.Index)}
}

// alive guards a node-side continuation against a stopped attempt.
func (a *attemptRun) alive(fn func()) func() {
	return func() {
		if !a.stopped {
			fn()
		}
	}
}

// report stops the attempt and sends its completion to the
// coordinator.
func (a *attemptRun) report(complete func(att int)) {
	a.stopped = true
	a.rt.toCoord(a.node, func() { complete(a.att) })
}

// cancel sends the stop message for a preempted or restarted attempt.
// Coordinator context only.
func (a *attemptRun) cancel() {
	a.rt.toNode(a.node, func() { a.stopped = true })
}

// mapRun is one map attempt executing on its node.
type mapRun struct {
	attemptRun
	m *mapTask
}

// run launches the attempt on its node.
func (m *mapTask) run() {
	run := &mapRun{attemptRun: m.job.rt.newAttempt(m.job, m.attempt, m.node), m: m}
	m.srun = run
	m.job.rt.toNode(run.node, run.start)
}

// complete folds a node-side completion on the coordinator, dropping
// reports from stale attempts.
func (m *mapTask) complete(att int) {
	if m.attempt != att || m.state != taskRunning {
		return
	}
	m.srun = nil
	m.finish()
}

// cancelRun stops a preempted map attempt. Coordinator context only.
func (m *mapTask) cancelRun() {
	if run := m.srun; run != nil {
		m.srun = nil
		run.cancel()
	}
}

// start runs the map's three phases on the node. The phases are
// sequential within the task; concurrency comes from many tasks.
func (mr *mapRun) start() {
	m, rt, alive := mr.m, mr.rt, mr.alive
	// Phase 1: consume the input split, alternating chunk reads with
	// computation. Generator maps only burn CPU here.
	mr.consumeInput(alive(func() {
		// Phase 2: spill intermediate output locally (write-behind).
		windowedOn(mr.eng, rt.cfg.ChunkBytes, m.interBytes(), rt.cfg.WriteAheadChunks, func(c float64, next func()) {
			mr.job.ioOn(mr.node, iosched.IntermediateWrite, c, alive(next))
		}, alive(func() {
			// Phase 3: direct DFS output (map-only jobs), replicated.
			key := outputKey(mr.job.seq, keyKindMap, m.index, mr.att)
			mr.job.writeReplicated(mr.node, mr.eng, m.directOutBytes(), key, alive(func() {
				mr.report(m.complete)
			}))
		}))
	}))
}

// consumeInput is phase 1: alternate chunk reads with computation.
// Remote chunks are read by a surviving replica's HDFS scheduler on its
// shard and shipped back over the network.
func (mr *mapRun) consumeInput(done func()) {
	m, rt, alive := mr.m, mr.rt, mr.alive
	cpuPerByte := mr.job.Spec.MapCPUSecPerMB / 1e6
	if m.block == nil {
		// Generator: pure computation over the synthesized volume.
		mr.eng.Schedule(m.inputBytes()*cpuPerByte, done)
		return
	}
	local := m.block.HasReplicaOn(mr.node.Index)
	chunkedOn(mr.eng, rt.cfg.ChunkBytes, m.block.Size, func(c float64, next func()) {
		afterRead := func() {
			if !mr.stopped {
				mr.eng.Schedule(c*cpuPerByte, alive(next))
			}
		}
		if local {
			mr.job.ioOn(mr.node, iosched.PersistentRead, c, afterRead)
			return
		}
		src := m.pickReplica(rt)
		if src == nil {
			// Every replica is gone: the block is lost and so is the job.
			rt.toCoord(mr.node, func() {
				if m.attempt == mr.att && m.state == taskRunning {
					m.preempt()
					m.job.fail()
				}
			})
			return
		}
		sim.Hop(mr.node.Shard(), src.Shard(), func() {
			mr.job.ioOn(src, iosched.PersistentRead, c, func() {
				mr.job.sendOn(src, mr.node, c, afterRead)
			})
		})
	}, done)
}

// reduceRun is one reduce attempt executing on its node. It owns the
// shuffle state for the attempt: the coordinator forwards segments,
// the all-maps-done marker and failure purges as messages and
// otherwise stays out of the data path.
type reduceRun struct {
	attemptRun
	r              *reduceTask
	pending        []segment
	activeFetchers int
	segsDone       int
	expected       int
	fetchedBytes   float64
	allMapsDone    bool
	finishing      bool
	inMem          bool
	rng            *rand.Rand
}

// run launches the attempt with the shuffle backlog gathered on the
// coordinator. A restarted attempt first rebuilds that backlog from
// the surviving completed map outputs.
func (r *reduceTask) run() {
	rt := r.job.rt
	if r.attempt > 0 {
		r.reseedSegments()
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(int64(r.job.seq)*1009 + int64(r.index)))
	}
	run := &reduceRun{
		attemptRun:  rt.newAttempt(r.job, r.attempt, r.node),
		r:           r,
		pending:     r.pending,
		segsDone:    r.segsDone,
		expected:    r.expectedSegments(),
		allMapsDone: r.job.mapsDone == len(r.job.maps),
		inMem:       r.inMemoryShuffle(),
		rng:         r.rng,
	}
	r.rrun = run
	r.pending = nil
	rt.toNode(run.node, run.start)
}

func (r *reduceTask) complete(att int) {
	if r.attempt != att || r.state != taskRunning {
		return
	}
	r.rrun = nil
	r.finish()
}

// cancelRun stops a restarted reduce attempt. Coordinator context only.
func (r *reduceTask) cancelRun() {
	if run := r.rrun; run != nil {
		r.rrun = nil
		run.cancel()
	}
}

// start fetches whatever is already available; later segments arrive
// as messages.
func (rr *reduceRun) start() {
	rr.pumpFetchers()
	rr.maybeFinishShuffle()
}

// addSegment receives one map output partition forwarded by the
// coordinator.
func (rr *reduceRun) addSegment(seg segment) {
	if rr.stopped {
		return
	}
	if seg.bytes <= 0 {
		rr.segsDone++ // trivially fetched
		rr.maybeFinishShuffle()
		return
	}
	rr.pending = append(rr.pending, seg)
	rr.pumpFetchers()
}

// markAllMapsDone is the coordinator's shuffle-barrier marker.
func (rr *reduceRun) markAllMapsDone() {
	if rr.stopped {
		return
	}
	rr.allMapsDone = true
	rr.maybeFinishShuffle()
}

func (rr *reduceRun) pumpFetchers() {
	for rr.activeFetchers < rr.rt.cfg.ShuffleParallelism && len(rr.pending) > 0 {
		i := rr.rng.Intn(len(rr.pending))
		seg := rr.pending[i]
		rr.pending[i] = rr.pending[len(rr.pending)-1]
		rr.pending = rr.pending[:len(rr.pending)-1]
		rr.activeFetchers++
		rr.fetchSegment(seg, rr.alive(func() {
			rr.activeFetchers--
			rr.segsDone++
			rr.fetchedBytes += seg.bytes
			rr.pumpFetchers()
			rr.maybeFinishShuffle()
		}))
	}
}

// fetchSegment streams one segment source→destination: intermediate
// read on the source's shard (the shuffle-serving I/O the NodeManager
// servlets perform), a tagged network hop if remote, then a local
// spill write unless the whole partition fits in the shuffle buffer.
// The chunk loop advances on the reduce's node.
func (rr *reduceRun) fetchSegment(seg segment, done func()) {
	node, alive := rr.node, rr.alive
	chunkedOn(rr.eng, rr.rt.cfg.ChunkBytes, seg.bytes, func(c float64, next func()) {
		land := func() {
			switch {
			case rr.stopped:
			case rr.inMem:
				next()
			default:
				rr.job.ioOn(node, iosched.IntermediateWrite, c, alive(next))
			}
		}
		if seg.srcNode == node {
			rr.job.ioOn(node, iosched.IntermediateRead, c, land)
			return
		}
		src := seg.srcNode
		sim.Hop(node.Shard(), src.Shard(), func() {
			rr.job.ioOn(src, iosched.IntermediateRead, c, func() {
				rr.job.sendOn(src, node, c, land)
			})
		})
	}, done)
}

// maybeFinishShuffle closes the shuffle once the marker has arrived
// and every expected segment is in, then merges, computes and writes
// replicated output on the node.
func (rr *reduceRun) maybeFinishShuffle() {
	if rr.finishing || rr.stopped {
		return
	}
	if !rr.allMapsDone || rr.segsDone < rr.expected {
		return
	}
	rr.finishing = true
	// shuffleDoneTime is owned by the live attempt; the coordinator
	// only reads task timings after the run completes.
	rr.r.shuffleDoneTime = rr.eng.Now()
	cpuPerByte := rr.job.Spec.ReduceCPUSecPerMB / 1e6
	alive := rr.alive
	// Merge: read back spilled shuffle data (skipped for in-memory
	// merges), interleaved with the reduce computation.
	merge := func(c float64, next func()) {
		rr.eng.Schedule(c*cpuPerByte, alive(next))
	}
	if !rr.inMem {
		merge = func(c float64, next func()) {
			rr.job.ioOn(rr.node, iosched.IntermediateRead, c, alive(func() {
				rr.eng.Schedule(c*cpuPerByte, alive(next))
			}))
		}
	}
	chunkedOn(rr.eng, rr.rt.cfg.ChunkBytes, rr.fetchedBytes, merge, alive(func() {
		out := 0.0
		if n := rr.job.Spec.NumReduces; n > 0 {
			out = rr.job.Spec.OutputBytes / float64(n)
		}
		key := outputKey(rr.job.seq, keyKindReduce, rr.r.index, rr.att)
		rr.job.writeReplicated(rr.node, rr.eng, out, key, alive(func() {
			rr.report(rr.r.complete)
		}))
	}))
}

// dropSource forgets unfetched segments served by node n.
func dropSource(segs []segment, n *cluster.Node) []segment {
	kept := segs[:0]
	for _, seg := range segs {
		if seg.srcNode != n {
			kept = append(kept, seg)
		}
	}
	return kept
}

// writeReplicated writes size bytes of DFS output from node n with the
// job's replication factor — the HDFS write pipeline: the namenode
// places the replicas (key identifies the writing attempt), the local
// copy lands on n's HDFS scheduler, and remote copies stream through
// the network to the replicas' schedulers. The window advances on n's
// engine eng.
//
// The window is not guarded by the attempt: a killed attempt's
// write-behind keeps draining to the end of its output, as an HDFS
// client's buffered stream does; only done is guarded by the caller.
func (j *Job) writeReplicated(n *cluster.Node, eng *sim.Engine, size float64, key uint64, done func()) {
	rt := j.rt
	if size <= 0 {
		eng.Schedule(0, done)
		return
	}
	repl := rt.nn.Replication()
	if j.Spec.OutputReplication > 0 && j.Spec.OutputReplication < repl {
		repl = j.Spec.OutputReplication
	}
	replicas := rt.nn.PlaceAttemptOutput(n.Index, key)[:repl]
	// Replicas placed on dead nodes are dropped (the namenode would
	// re-replicate later; the write pipeline just skips them).
	aliveReplicas := replicas[:0]
	for _, idx := range replicas {
		if !rt.cluster.Nodes[idx].Dead {
			aliveReplicas = append(aliveReplicas, idx)
		}
	}
	replicas = aliveReplicas
	if len(replicas) == 0 {
		replicas = []int{n.Index}
	}
	windowedOn(eng, rt.cfg.ChunkBytes, size, rt.cfg.WriteAheadChunks, func(c float64, next func()) {
		remainingCopies := len(replicas)
		copyDone := func() {
			remainingCopies--
			if remainingCopies == 0 {
				next()
			}
		}
		for _, idx := range replicas {
			target := rt.cluster.Nodes[idx]
			if target == n {
				j.ioOn(target, iosched.PersistentWrite, c, copyDone)
				continue
			}
			j.sendOn(n, target, c, func() {
				j.ioOn(target, iosched.PersistentWrite, c, func() {
					sim.Hop(target.Shard(), n.Shard(), copyDone)
				})
			})
		}
	}, done)
}

// chunkedOn runs fn over size bytes in chunkBytes units, sequentially,
// on engine eng: fn(chunkSize, next) must call next() when the chunk
// completes. done fires after the final chunk.
func chunkedOn(eng *sim.Engine, chunkBytes, size float64, fn func(chunk float64, next func()), done func()) {
	windowedOn(eng, chunkBytes, size, 1, fn, done)
}

// windowedOn is the pipelined generalization of chunkedOn: up to
// window chunks may be in flight concurrently (write-behind). done
// fires when every chunk has completed.
func windowedOn(eng *sim.Engine, chunkBytes, size float64, window int, fn func(chunk float64, next func()), done func()) {
	if size <= 0 {
		eng.Schedule(0, done)
		return
	}
	if window < 1 {
		window = 1
	}
	remaining := size
	outstanding := 0
	var launch func()
	completeOne := func() {
		outstanding--
		if remaining > 0 {
			launch()
		} else if outstanding == 0 {
			done()
		}
	}
	launch = func() {
		if remaining <= 0 {
			return
		}
		c := chunkBytes
		if remaining < c {
			c = remaining
		}
		remaining -= c
		outstanding++
		fn(c, completeOne)
	}
	for i := 0; i < window && remaining > 0; i++ {
		launch()
	}
}
