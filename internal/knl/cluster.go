package knl

import (
	"fmt"

	"repro/internal/vtime"
)

// Multi-node extension: the paper evaluates a single KNL node, but its
// Section IV argues the communication-overlap strategy "is especially
// targeting large scales where the impact of the communication is very
// high" — i.e. multi-node runs, where collectives cross an interconnect
// that is an order of magnitude slower than the on-node fabric. The
// cluster model keeps the per-node contention machinery intact (each node
// has its own shared-resource pool) and adds inter-node terms to the
// communication costs.

// Fabric is the communication cost model the MPI layer consults. Node
// implements it for a single node (the nodesSpanned argument is ignored);
// Cluster adds inter-node terms when a collective spans several nodes.
type Fabric interface {
	// TotalLanes returns the hardware lane count of the machine.
	TotalLanes() int
	// LaneNode returns the node hosting a lane.
	LaneNode(lane int) int
	// AlltoallTime models an Alltoall(v) among k ranks sending
	// bytesPerRank each, with commLanes lanes communicating concurrently,
	// spanning nodesSpanned nodes.
	AlltoallTime(k int, bytesPerRank float64, commLanes, nodesSpanned int) float64
	// BcastTime models a broadcast of bytes among k ranks.
	BcastTime(k int, bytes float64, commLanes, nodesSpanned int) float64
	// ReduceTime models an (all)reduce of bytes among k ranks.
	ReduceTime(k int, bytes float64, commLanes, nodesSpanned int) float64
	// P2PTime models one point-to-point message.
	P2PTime(bytes float64, commLanes, nodesSpanned int) float64
}

// NetParams describes the inter-node interconnect.
type NetParams struct {
	// Latency is the per-participant latency of an inter-node exchange
	// hop, in seconds (an Omni-Path/IB-class fabric: ~2 µs).
	Latency float64
	// Bandwidth is one node's uplink bandwidth in bytes/second
	// (~12.5 GB/s for a 100 Gb/s link).
	Bandwidth float64
}

// DefaultNet returns an Omni-Path-class interconnect, the fabric KNL
// systems shipped with.
func DefaultNet() NetParams {
	return NetParams{Latency: 2e-6, Bandwidth: 12.5e9}
}

// Cluster is a set of identical nodes joined by an interconnect. It
// implements vtime.Machine (per-node contention) and Fabric (inter-node
// communication costs). Lanes are block-distributed: lane L lives on node
// L/lanesPerNode.
type Cluster struct {
	PerNode      Params
	Net          NetParams
	NodeCount    int
	Lanes        int
	lanesPerNode int
	nodes        []*Node
}

// NewCluster builds a cluster of nodeCount nodes hosting lanes hardware
// lanes in total.
func NewCluster(p Params, net NetParams, nodeCount, lanes int) *Cluster {
	if nodeCount <= 0 {
		panic("knl: node count must be positive")
	}
	if lanes <= 0 {
		panic("knl: lanes must be positive")
	}
	lpn := (lanes + nodeCount - 1) / nodeCount
	if lpn > 4*p.Cores {
		panic(fmt.Sprintf("knl: %d lanes per node exceed 4-way hyper-threading on %d cores", lpn, p.Cores))
	}
	c := &Cluster{
		PerNode: p, Net: net, NodeCount: nodeCount, Lanes: lanes,
		lanesPerNode: lpn,
	}
	for n := 0; n < nodeCount; n++ {
		c.nodes = append(c.nodes, NewNode(p, lpn))
	}
	return c
}

// TotalLanes implements Fabric.
func (c *Cluster) TotalLanes() int { return c.Lanes }

// LaneNode implements Fabric.
func (c *Cluster) LaneNode(lane int) int { return lane / c.lanesPerNode }

// Rates implements vtime.Machine: each node's model, in node order,
// evaluates its own contention over the jobs on its block of lanes.
func (c *Cluster) Rates(jobs []*vtime.ActiveJob) {
	for n, node := range c.nodes {
		node.rates(jobs, n*c.lanesPerNode)
	}
}

// interTime returns the inter-node component of moving bytesPerRank per
// rank across the uplinks, with the node's uplink shared by its
// communicating lanes.
func (c *Cluster) interTime(k int, bytesPerRank float64, commLanes, nodesSpanned int) float64 {
	if nodesSpanned <= 1 {
		return 0
	}
	// Fraction of each rank's traffic that leaves its node in a uniform
	// exchange over nodesSpanned nodes.
	frac := 1 - 1/float64(nodesSpanned)
	lanesPerNodeComm := commLanes / nodesSpanned
	if lanesPerNodeComm < 1 {
		lanesPerNodeComm = 1
	}
	uplinkPerRank := c.Net.Bandwidth / float64(lanesPerNodeComm)
	return c.Net.Latency*float64(k-1) + bytesPerRank*frac/uplinkPerRank
}

// AlltoallTime implements Fabric: the on-node component (evaluated by the
// per-node model) plus the inter-node component; the slower of the two
// paths dominates a pipelined exchange, so the maximum is charged.
func (c *Cluster) AlltoallTime(k int, bytesPerRank float64, commLanes, nodesSpanned int) float64 {
	intra := c.nodes[0].AlltoallTime(k, bytesPerRank, commLanes, 1)
	return max(intra, c.interTime(k, bytesPerRank, commLanes, nodesSpanned))
}

// BcastTime implements Fabric.
func (c *Cluster) BcastTime(k int, bytes float64, commLanes, nodesSpanned int) float64 {
	intra := c.nodes[0].BcastTime(k, bytes, commLanes, 1)
	return max(intra, c.interTime(k, bytes, commLanes, nodesSpanned))
}

// ReduceTime implements Fabric.
func (c *Cluster) ReduceTime(k int, bytes float64, commLanes, nodesSpanned int) float64 {
	return c.BcastTime(k, bytes, commLanes, nodesSpanned)
}

// P2PTime implements Fabric.
func (c *Cluster) P2PTime(bytes float64, commLanes, nodesSpanned int) float64 {
	intra := c.nodes[0].P2PTime(bytes, commLanes, 1)
	if nodesSpanned <= 1 {
		return intra
	}
	return max(intra, c.Net.Latency+bytes/c.Net.Bandwidth)
}
