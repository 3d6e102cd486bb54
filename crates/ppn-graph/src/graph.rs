//! The central undirected weighted graph type.
//!
//! Node weights model FPGA resources consumed by a process; edge weights
//! model sustained bandwidth over the FIFO channels between two processes.
//! The representation is an adjacency list over flat vectors. It is the
//! ingest and mutation type (I/O, generators, deltas); partitioners read
//! a CSR snapshot of it, and the multilevel hierarchy lives in a flat
//! [`LevelArena`](crate::arena::LevelArena), not in one graph per level.

use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// An undirected graph with strictly positive node and edge weights.
///
/// * node weight = resources required to implement the process on an FPGA
///   (the paper considers a single resource class, e.g. LUTs);
/// * edge weight = bandwidth consumed when the two endpoints are mapped to
///   different FPGAs.
///
/// Parallel edges are merged on insertion via
/// [`add_or_merge_edge`](WeightedGraph::add_or_merge_edge) (their weights
/// add, matching the contraction semantics of §IV-A of the paper); self
/// loops are rejected.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WeightedGraph {
    node_weights: Vec<u64>,
    edges: Vec<(NodeId, NodeId, u64)>,
    /// adjacency: for each node, (neighbour, edge id)
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Optional node labels carried through I/O and DOT output.
    labels: Vec<Option<String>>,
}

impl WeightedGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a graph with `n` nodes all of weight `w`.
    pub fn with_uniform_nodes(n: usize, w: u64) -> Self {
        let mut g = Self::new();
        for _ in 0..n {
            g.add_node(w);
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of (merged, undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_weights.is_empty()
    }

    /// Add a node with resource weight `w` (must be > 0) and return its id.
    pub fn add_node(&mut self, w: u64) -> NodeId {
        assert!(w > 0, "node weights must be strictly positive");
        let id = NodeId::from_index(self.node_weights.len());
        self.node_weights.push(w);
        self.adj.push(Vec::new());
        self.labels.push(None);
        id
    }

    /// Add a node with a human-readable label (process name).
    pub fn add_labeled_node(&mut self, w: u64, label: impl Into<String>) -> NodeId {
        let id = self.add_node(w);
        self.labels[id.index()] = Some(label.into());
        id
    }

    /// Attach or replace the label of an existing node.
    pub fn set_label(&mut self, n: NodeId, label: impl Into<String>) {
        self.labels[n.index()] = Some(label.into());
    }

    /// The label of a node, if one was set.
    pub fn label(&self, n: NodeId) -> Option<&str> {
        self.labels[n.index()].as_deref()
    }

    /// Resource weight of node `n`.
    #[inline]
    pub fn node_weight(&self, n: NodeId) -> u64 {
        self.node_weights[n.index()]
    }

    /// Mutable access to a node's weight (used by contraction when merging
    /// matched pairs).
    pub fn set_node_weight(&mut self, n: NodeId, w: u64) {
        assert!(w > 0, "node weights must be strictly positive");
        self.node_weights[n.index()] = w;
    }

    /// Sum of all node weights (invariant under contraction).
    pub fn total_node_weight(&self) -> u64 {
        self.node_weights.iter().sum()
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> u64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Endpoints and weight of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, u64) {
        self.edges[e.index()]
    }

    /// Bandwidth weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> u64 {
        self.edges[e.index()].2
    }

    /// Overwrite the weight of edge `e` (must be > 0).
    pub fn set_edge_weight(&mut self, e: EdgeId, w: u64) {
        assert!(w > 0, "edge weights must be strictly positive");
        self.edges[e.index()].2 = w;
    }

    /// Add an undirected edge `u -- v` with bandwidth `w`.
    ///
    /// Errors on self loops, zero weights, unknown endpoints or duplicate
    /// edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u64) -> Result<EdgeId, GraphError> {
        self.check_endpoints(u, v, w)?;
        if self.find_edge(u, v).is_some() {
            return Err(GraphError::DuplicateEdge(u.0, v.0));
        }
        Ok(self.push_edge(u, v, w))
    }

    /// Add `u -- v` with weight `w`, merging with an existing edge by
    /// summing weights (the semantics used when multiple FIFO channels
    /// connect the same process pair, and when contraction creates
    /// parallel edges).
    pub fn add_or_merge_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: u64,
    ) -> Result<EdgeId, GraphError> {
        self.check_endpoints(u, v, w)?;
        if let Some(e) = self.find_edge(u, v) {
            self.edges[e.index()].2 += w;
            Ok(e)
        } else {
            Ok(self.push_edge(u, v, w))
        }
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId, w: u64) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u.0));
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight);
        }
        if u.index() >= self.num_nodes() {
            return Err(GraphError::InvalidNode(u.0));
        }
        if v.index() >= self.num_nodes() {
            return Err(GraphError::InvalidNode(v.0));
        }
        Ok(())
    }

    /// Append `u -- v` with weight `w` without the duplicate-edge probe.
    /// Delta application and the METIS reader call this once they have
    /// ruled out duplicates themselves, so the O(degree) `find_edge` scan
    /// inside [`add_edge`](WeightedGraph::add_edge) would only re-verify
    /// what the caller guarantees (debug-asserted here).
    pub(crate) fn push_edge_unchecked(&mut self, u: NodeId, v: NodeId, w: u64) -> EdgeId {
        debug_assert!(u != v, "self loop");
        debug_assert!(w > 0, "zero weight");
        debug_assert!(u.index() < self.num_nodes() && v.index() < self.num_nodes());
        debug_assert!(
            self.find_edge(u, v).is_none(),
            "duplicate edge {u:?}--{v:?}"
        );
        self.push_edge(u, v, w)
    }

    /// Pre-size the backing vectors for a known final shape, so bulk
    /// rebuilds (delta application) pay one allocation per vector
    /// instead of a doubling cascade.
    pub(crate) fn reserve(&mut self, nodes: usize, edges: usize) {
        self.node_weights.reserve(nodes);
        self.labels.reserve(nodes);
        self.adj.reserve(nodes);
        self.edges.reserve(edges);
    }

    fn push_edge(&mut self, u: NodeId, v: NodeId, w: u64) -> EdgeId {
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push((u, v, w));
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        id
    }

    /// The edge between `u` and `v`, if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        // scan the smaller adjacency list
        let (a, b) = if self.adj[u.index()].len() <= self.adj[v.index()].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()]
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, e)| e)
    }

    /// Neighbours of `n` as `(neighbour, edge id)` pairs, in insertion
    /// order.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[n.index()]
    }

    /// Degree (number of distinct neighbours) of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// Sum of incident edge weights of `n` (the node's total traffic).
    pub fn weighted_degree(&self, n: NodeId) -> u64 {
        self.adj[n.index()]
            .iter()
            .map(|&(_, e)| self.edge_weight(e))
            .sum()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId::from_index)
    }

    /// Iterator over `(u, v, w)` for every edge.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.edges.iter().copied()
    }

    /// All node weights as a slice, indexed by `NodeId::index()`.
    pub fn node_weights(&self) -> &[u64] {
        &self.node_weights
    }

    /// The maximum node weight (0 for an empty graph). Useful for sanity
    /// checks: a partitioning instance is trivially infeasible when a
    /// single node exceeds `Rmax`.
    pub fn max_node_weight(&self) -> u64 {
        self.node_weights.iter().copied().max().unwrap_or(0)
    }

    /// Structural validation: adjacency is consistent with the edge list,
    /// no self loops, no duplicate edges, all weights positive. Intended
    /// for tests and after deserialisation.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.adj.len() != self.node_weights.len() || self.labels.len() != self.node_weights.len()
        {
            return Err(GraphError::Io("internal vector length mismatch".into()));
        }
        for &w in self.node_weights.iter() {
            if w == 0 {
                return Err(GraphError::ZeroWeight);
            }
        }
        for &(u, v, w) in self.edges.iter() {
            if u == v {
                return Err(GraphError::SelfLoop(u.0));
            }
            if w == 0 {
                return Err(GraphError::ZeroWeight);
            }
            if u.index() >= self.num_nodes() {
                return Err(GraphError::InvalidNode(u.0));
            }
            if v.index() >= self.num_nodes() {
                return Err(GraphError::InvalidNode(v.0));
            }
        }
        // Adjacency ↔ edge-list agreement in O(V + E): every adjacency
        // entry must name an edge whose endpoints are exactly (here,
        // neighbour), and every edge must be named exactly twice — once
        // from each endpoint. This replaces a per-edge `contains` scan
        // whose O(E · degree) cost dominated validation on dense graphs.
        let mut incidences = vec![0u8; self.edges.len()];
        for u in 0..self.num_nodes() {
            for &(v, e) in &self.adj[u] {
                let Some(&(a, b, _)) = self.edges.get(e.index()) else {
                    return Err(GraphError::InvalidEdge(e.0));
                };
                let matches = (a.index() == u && b == v) || (b.index() == u && a == v);
                if !matches {
                    return Err(GraphError::InvalidEdge(e.0));
                }
                incidences[e.index()] = incidences[e.index()].saturating_add(1);
            }
        }
        if incidences.iter().any(|&c| c != 2) {
            return Err(GraphError::Io("dangling adjacency entries".into()));
        }
        // Duplicate detection via a stamped marker array: O(V + E) with a
        // single allocation, instead of a HashSet keyed on edge pairs.
        // validate() sits on the request path of budgeted runs, where a
        // 1M-node instance must clear it in a few milliseconds.
        let mut last_seen_from = vec![u32::MAX; self.num_nodes()];
        for u in 0..self.num_nodes() {
            for &(v, _) in &self.adj[u] {
                if last_seen_from[v.index()] == u as u32 {
                    return Err(GraphError::DuplicateEdge(u as u32, v.0));
                }
                last_seen_from[v.index()] = u as u32;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(20);
        let c = g.add_node(30);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 2).unwrap();
        g.add_edge(c, a, 3).unwrap();
        g
    }

    #[test]
    fn build_triangle() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_node_weight(), 60);
        assert_eq!(g.total_edge_weight(), 6);
        g.validate().unwrap();
    }

    #[test]
    fn degrees_and_weighted_degrees() {
        let g = triangle();
        for n in g.node_ids() {
            assert_eq!(g.degree(n), 2);
        }
        assert_eq!(g.weighted_degree(NodeId(0)), 1 + 3);
        assert_eq!(g.weighted_degree(NodeId(1)), 1 + 2);
        assert_eq!(g.weighted_degree(NodeId(2)), 2 + 3);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = WeightedGraph::new();
        let a = g.add_node(1);
        assert_eq!(g.add_edge(a, a, 1), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn duplicate_edge_rejected_but_merge_accumulates() {
        let mut g = WeightedGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let e = g.add_edge(a, b, 5).unwrap();
        assert!(matches!(
            g.add_edge(a, b, 1),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert!(matches!(
            g.add_edge(b, a, 1),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        let e2 = g.add_or_merge_edge(b, a, 7).unwrap();
        assert_eq!(e, e2);
        assert_eq!(g.edge_weight(e), 12);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn zero_weight_rejected() {
        let mut g = WeightedGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        assert_eq!(g.add_edge(a, b, 0), Err(GraphError::ZeroWeight));
    }

    #[test]
    #[should_panic]
    fn zero_node_weight_panics() {
        let mut g = WeightedGraph::new();
        g.add_node(0);
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut g = WeightedGraph::new();
        let a = g.add_node(1);
        assert_eq!(g.add_edge(a, NodeId(9), 1), Err(GraphError::InvalidNode(9)));
    }

    #[test]
    fn find_edge_is_symmetric() {
        let g = triangle();
        let e = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g.find_edge(NodeId(2), NodeId(0)), Some(e));
        assert_eq!(g.edge_weight(e), 3);
        assert_eq!(g.find_edge(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn labels_roundtrip() {
        let mut g = WeightedGraph::new();
        let a = g.add_labeled_node(4, "producer");
        let b = g.add_node(4);
        assert_eq!(g.label(a), Some("producer"));
        assert_eq!(g.label(b), None);
        g.set_label(b, "consumer");
        assert_eq!(g.label(b), Some("consumer"));
    }

    #[test]
    fn serde_roundtrip() {
        let g = triangle();
        let s = serde_json::to_string(&g).unwrap();
        let g2: WeightedGraph = serde_json::from_str(&s).unwrap();
        g2.validate().unwrap();
        assert_eq!(g2.num_nodes(), 3);
        assert_eq!(g2.total_edge_weight(), 6);
    }

    #[test]
    fn uniform_nodes_constructor() {
        let g = WeightedGraph::with_uniform_nodes(5, 7);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.total_node_weight(), 35);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn max_node_weight_tracks_maximum() {
        let g = triangle();
        assert_eq!(g.max_node_weight(), 30);
        assert_eq!(WeightedGraph::new().max_node_weight(), 0);
    }
}
