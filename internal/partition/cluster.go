package partition

import (
	"context"
	"fmt"
	"math"

	"specsyn/internal/core"
)

// This file implements hierarchical clustering over the access graph — the
// kind of O(n²) algorithm the paper's §5 uses to argue format size matters:
// "if an n² algorithm is to be applied, then the SLIF-AG, VT or ADD, and
// CDFG formats would require 1225, 202500, and 1210000 computations".
// Closeness between two nodes is their communication volume (Σ freq×bits
// over connecting channels), the natural metric for partitioning: tightly
// communicating objects belong on the same component.

// Cluster is a set of node indices with a combined traffic total.
type Cluster struct {
	Nodes []*core.Node
}

// Closeness returns the pairwise closeness matrix of the graph's nodes —
// the O(n²) structure over which clustering runs. PairComputations reports
// how many pair computations that took (n² in the paper's accounting).
func Closeness(g *core.Graph) (matrix [][]float64, pairComputations int) {
	n := len(g.Nodes)
	index := make(map[*core.Node]int, n)
	for i, nd := range g.Nodes {
		index[nd] = i
	}
	matrix = make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
	}
	for _, c := range g.Channels {
		dst, ok := c.Dst.(*core.Node)
		if !ok {
			continue // port traffic has no partner node
		}
		i, j := index[c.Src], index[dst]
		if i == j {
			continue
		}
		v := c.AccFreq * float64(c.Bits)
		matrix[i][j] += v
		matrix[j][i] += v
	}
	return matrix, n * n
}

// HierarchicalClusters agglomerates the graph's nodes into k clusters by
// repeatedly merging the closest pair (average linkage). It returns the
// clusters and the number of pairwise computations performed — the
// quantity the §5 comparison reasons about.
func HierarchicalClusters(g *core.Graph, k int) ([]Cluster, int, error) {
	n := len(g.Nodes)
	if k < 1 || k > n {
		return nil, 0, fmt.Errorf("partition: cannot form %d clusters from %d nodes", k, n)
	}
	closeM, computations := Closeness(g)

	clusters := make([]Cluster, n)
	for i, nd := range g.Nodes {
		clusters[i] = Cluster{Nodes: []*core.Node{nd}}
	}
	// cl holds the live cluster indices; dist the inter-cluster closeness.
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	dist := closeM // reuse: dist[i][j] between live clusters

	for alive := n; alive > k; alive-- {
		// Find the closest live pair.
		bi, bj, best := -1, -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if !live[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !live[j] {
					continue
				}
				computations++
				if dist[i][j] > best {
					bi, bj, best = i, j, dist[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		// Merge bj into bi, average linkage.
		si, sj := float64(len(clusters[bi].Nodes)), float64(len(clusters[bj].Nodes))
		clusters[bi].Nodes = append(clusters[bi].Nodes, clusters[bj].Nodes...)
		live[bj] = false
		for t := 0; t < n; t++ {
			if !live[t] || t == bi {
				continue
			}
			dist[bi][t] = (dist[bi][t]*si + dist[bj][t]*sj) / (si + sj)
			dist[t][bi] = dist[bi][t]
		}
	}

	var out []Cluster
	for i := 0; i < n; i++ {
		if live[i] {
			out = append(out, clusters[i])
		}
	}
	return out, computations, nil
}

// ClusterGreedy partitions by first clustering the nodes to as many
// clusters as there are components, then assigning whole clusters to
// components greedily by cost. Clusters whose nodes cannot all live on the
// chosen component (behaviors on a memory) spill those nodes to their first
// allowed component. A cancelled or budget-exhausted run stops placing
// clusters and returns the complete mapping built so far with Partial set.
func ClusterGreedy(ctx context.Context, g *core.Graph, cfg Config) (Result, error) {
	start := cfg.Eval.Evals
	nComps := len(g.Components())
	if nComps == 0 {
		return Result{}, fmt.Errorf("partition: graph has no components")
	}
	k := nComps
	if k > len(g.Nodes) {
		k = len(g.Nodes)
	}
	clusters, _, err := HierarchicalClusters(g, k)
	if err != nil {
		return Result{}, err
	}

	// Seed everything legal, then move cluster by cluster.
	d, ids, err := bindVector(g, cfg)
	if err != nil {
		return Result{}, err
	}
	vec := d.asg.NodeComp
	assignCluster := func(cl Cluster, comp int32) {
		for _, n := range cl.Nodes {
			j, _ := d.deps.Index(n)
			vec[j] = ids[j][0]
			for _, c := range ids[j] {
				if c == comp {
					vec[j] = comp
				}
			}
		}
	}

	partial := false
	for _, cl := range clusters {
		if cancelled(ctx) || !cfg.budgetLeft(start) {
			partial = true
			break
		}
		bestCost, bestComp := math.Inf(1), int32(-1)
		for comp := int32(0); comp < int32(nComps); comp++ {
			assignCluster(cl, comp)
			cost, err := d.costCandidate()
			if err != nil {
				return Result{}, err
			}
			if cost < bestCost {
				bestCost, bestComp = cost, comp
			}
		}
		assignCluster(cl, bestComp)
	}
	cost, err := d.costCandidate()
	if err != nil {
		return Result{}, err
	}
	best, err := materialize(g, d, vec, cfg.Policy)
	if err != nil {
		return Result{}, err
	}
	return exact(cfg.Eval, Result{Best: best, Cost: cost, Evals: cfg.Eval.Evals - start, Partial: partial}, nil)
}
