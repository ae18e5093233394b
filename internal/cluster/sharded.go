// Sharded cluster assembly: one simulation shard per datanode plus a
// coordinator shard, advancing concurrently under the fabric's
// conservative synchronization.
//
// Partitioning. Shard 0 (the coordinator) owns what is genuinely
// cluster-global: the fair scheduler's slot accounting, per-job
// barriers (map/reduce completion counts), the broker root, and the
// share tree's clock. Shard 1+i owns datanode i: its two storage
// devices, its NIC processor-sharing resources, its interposed I/O
// schedulers, its coordination clients, and the running task attempts
// placed on it (their chunk pipelines, shuffle fetchers and merge
// loops execute on the owning node's engine; see mapreduce's task
// pipeline). Block metadata is partitioned by block-id hash across
// dedicated metadata shards after the federation partitions
// (Config.MetaShards), so placement draws never serialize on shard 0.
// Every cross-shard interaction — a task launch, a completion report,
// a shuffle transfer landing on a remote NIC, a broker exchange, a
// fault-schedule event — travels as a timestamped inter-shard message
// (sim.Hop), so each engine remains single-owner and the run is
// bit-identical for every worker count. There is no coordinator-routed
// I/O: the node API below is the same on one engine and on the fabric,
// and only the caller's shard differs. The same holds for coordination:
// each client's link (link.go) is a daemon hop to the broker's shard
// and back, the very code that runs as direct calls on one engine.
//
// The fabric lookahead plays the role of the cluster's control-plane
// RPC latency: a task launch, a completion report, a NIC-to-NIC hop
// and a broker exchange leg each take at least one lookahead of
// virtual time. The sharded model is therefore not bit-identical to
// the single-engine model (which has zero-latency control edges); it
// is its own deterministic system, pinned by comparing worker counts
// against each other.
//
// Constraints. The share tree must be fully populated before the
// fabric runs: node shards resolve weights at tag time, and the tree's
// auto-bind-on-read would be a cross-shard mutation. mapreduce.Submit
// binds every job's app synchronously at submission, so submitting all
// jobs before Run (as the experiments do) satisfies this; mid-run
// reweighting, Hive stage submission and FailNode are unsupported in
// sharded mode.
package cluster

import (
	"ibis/internal/sim"
)

// DefaultLookahead is the default cross-shard latency (virtual
// seconds) when a caller passes none: a LAN-class control RPC, two
// orders of magnitude below the coordination period, far above float
// noise.
const DefaultLookahead = 0.02

// NewSharded assembles a cluster across a fresh fabric of cfg.Nodes+1
// shards: shard 0 is the coordinator (Cluster.Eng is its engine),
// shard 1+i is datanode i. lookahead (≤0 = DefaultLookahead) becomes
// the minimum virtual latency of every cross-shard edge; fo.Workers
// sets the physical parallelism and changes nothing else.
func NewSharded(cfg Config, lookahead float64, fo sim.FabricOptions) (*Cluster, error) {
	cfg.defaults()
	if lookahead <= 0 {
		lookahead = DefaultLookahead
	}
	extra := 0
	if cfg.Coordinate && cfg.Federation.Enabled() {
		extra = cfg.Federation.Partitions
	}
	// Metadata shards host the partitioned namenode's placement draws
	// (default 2 for full nodes; hollow nodes run no DFS). They sit
	// after the federation partitions.
	meta := cfg.MetaShards
	if meta == 0 && !cfg.Hollow {
		meta = DefaultMetaShards
	}
	if meta < 0 {
		meta = 0
	}
	f := sim.NewFabric(cfg.Nodes+1+extra+meta, lookahead, fo)
	c, err := assemble(f.Shard(0).Engine(), f, cfg)
	if err != nil {
		return nil, err
	}
	for p := 0; p < meta; p++ {
		c.meta = append(c.meta, f.Shard(1+cfg.Nodes+extra+p))
	}
	return c, nil
}

// DefaultMetaShards is the metadata shard count for full (non-hollow)
// sharded assemblies when Config.MetaShards is zero.
const DefaultMetaShards = 2

// MetaShards returns the dedicated metadata shards (empty in
// single-engine or hollow mode). The partitioned namenode's partition
// p draws on shard p%len.
func (c *Cluster) MetaShards() []*sim.Shard { return c.meta }

// Fabric returns the simulation fabric, or nil in single-engine mode.
func (c *Cluster) Fabric() *sim.Fabric { return c.fabric }

// SetNodeUplinkLatency raises the minimum virtual latency of messages
// leaving every datanode shard to lat seconds (≥ the fabric
// lookahead). Node→coordinator traffic is periodic control RPCs
// (heartbeat-piggybacked exchanges), so a looser uplink bound is
// faithful to real clusters — and it widens the conservative
// synchronization windows: the fabric can run each shard further ahead
// before a barrier, cutting barrier count roughly by lat/lookahead.
// Coordinator and partition shards keep the tight bound, so response
// legs stay fast. No-op in single-engine mode.
func (c *Cluster) SetNodeUplinkLatency(lat float64) {
	if c.fabric == nil {
		return
	}
	for i := range c.Nodes {
		c.fabric.SetShardOutLatency(1+i, lat)
	}
}

// NodeEngine returns the engine owning node i's devices (the cluster
// engine in single-engine mode).
func (c *Cluster) NodeEngine(i int) *sim.Engine {
	if c.fabric != nil {
		return c.fabric.Shard(i + 1).Engine()
	}
	return c.Eng
}

// Shard returns the node's fabric shard (nil in single-engine mode).
func (n *Node) Shard() *sim.Shard { return n.shard }

// CoordShard returns the coordinator shard (nil in single-engine
// mode).
func (c *Cluster) CoordShard() *sim.Shard {
	if c.fabric == nil {
		return nil
	}
	return c.fabric.Shard(0)
}

// Node I/O on the fabric. SubmitIO, Send and SendTagged are called
// from the owning node's shard — a task pipeline running on the node's
// engine — and touch no coordinator state: a submit goes straight to
// the node's scheduler and completes there, and a transfer leaves the
// source NIC, crosses one inter-shard hop and completes on the
// destination's shard, where the receiving pipeline continues. On a
// single engine the same calls run with the hop as a direct call.
