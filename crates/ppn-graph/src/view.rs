//! Read-only graph abstraction shared by [`WeightedGraph`] and the flat
//! level arena.
//!
//! The matching heuristics of the coarsening tournament only *read* a
//! graph: node weights, the edge list in id order, and per-node adjacency
//! in insertion order. [`GraphView`] captures exactly that surface, so
//! one monomorphized copy of each heuristic runs over the pointer-rich
//! [`WeightedGraph`] and another over the CSR-native
//! [`LevelView`](crate::arena::LevelView) — producing bit-identical
//! matchings because both views expose the *same* edge and adjacency
//! order (the order every seeded heuristic consumes).
//!
//! `Sync` is a supertrait so the tournament can evaluate heuristics on
//! worker threads.

use crate::graph::WeightedGraph;
use crate::ids::{EdgeId, NodeId};

/// Read-only access to an undirected weighted graph.
///
/// Implementations must agree on ordering with [`WeightedGraph`]:
/// `edge(e)` enumerates edges in creation (id) order, and
/// `neighbor(v, i)` walks `v`'s adjacency in the order edges incident to
/// `v` were created — the invariants the seeded matching heuristics and
/// the contraction merge depend on.
pub trait GraphView: Sync {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Number of (merged, undirected) edges.
    fn num_edges(&self) -> usize;
    /// Resource weight of node `v`.
    fn node_weight(&self, v: NodeId) -> u64;
    /// Endpoints and weight of edge `e`, in stored orientation.
    fn edge(&self, e: EdgeId) -> (NodeId, NodeId, u64);
    /// Degree of `v`.
    fn degree(&self, v: NodeId) -> usize;
    /// The `i`-th `(neighbour, edge id)` entry of `v`'s adjacency.
    fn neighbor(&self, v: NodeId, i: usize) -> (NodeId, EdgeId);

    /// Bandwidth weight of edge `e`.
    #[inline]
    fn edge_weight(&self, e: EdgeId) -> u64 {
        self.edge(e).2
    }

    /// The edge between `u` and `v`, if present (scan of `u`'s
    /// adjacency).
    fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        (0..self.degree(u)).find_map(|i| {
            let (n, e) = self.neighbor(u, i);
            (n == v).then_some(e)
        })
    }
}

/// The first structural difference between `a` and `b` — shape, a node
/// weight, an adjacency entry (neighbour and edge id, in order), or an
/// edge in id order — or `None` when both views describe the same graph
/// in the same orders. These are exactly the orders the seeded
/// heuristics consume, so tests use this to pin two representations of
/// one graph (an arena level and a `WeightedGraph`, say) to each other.
pub fn structural_diff(a: &dyn GraphView, b: &dyn GraphView) -> Option<String> {
    let shape = |g: &dyn GraphView| (g.num_nodes(), g.num_edges());
    if shape(a) != shape(b) {
        return Some(format!("(nodes, edges) {:?} vs {:?}", shape(a), shape(b)));
    }
    for v in (0..a.num_nodes()).map(NodeId::from_index) {
        if a.node_weight(v) != b.node_weight(v) {
            return Some(format!("weight of {v:?}"));
        }
        let adj = |g: &dyn GraphView| (0..g.degree(v)).map(|i| g.neighbor(v, i)).collect();
        let (xa, xb): (Vec<_>, Vec<_>) = (adj(a), adj(b));
        if xa != xb {
            return Some(format!("adjacency of {v:?}: {xa:?} vs {xb:?}"));
        }
    }
    (0..a.num_edges())
        .map(EdgeId::from_index)
        .find(|&e| a.edge(e) != b.edge(e))
        .map(|e| format!("edge {e:?}: {:?} vs {:?}", a.edge(e), b.edge(e)))
}

impl GraphView for WeightedGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        WeightedGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        WeightedGraph::num_edges(self)
    }

    #[inline]
    fn node_weight(&self, v: NodeId) -> u64 {
        WeightedGraph::node_weight(self, v)
    }

    #[inline]
    fn edge(&self, e: EdgeId) -> (NodeId, NodeId, u64) {
        WeightedGraph::edge(self, e)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        WeightedGraph::degree(self, v)
    }

    #[inline]
    fn neighbor(&self, v: NodeId, i: usize) -> (NodeId, EdgeId) {
        self.neighbors(v)[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(i + 1)).collect();
        g.add_edge(n[0], n[1], 3).unwrap();
        g.add_edge(n[1], n[2], 5).unwrap();
        g.add_edge(n[2], n[3], 7).unwrap();
        g.add_edge(n[3], n[0], 2).unwrap();
        g.add_edge(n[0], n[2], 9).unwrap();
        g
    }

    #[test]
    fn weighted_graph_view_agrees_with_inherent_api() {
        let g = diamond();
        let v: &dyn GraphView = &g;
        assert_eq!(v.num_nodes(), 4);
        assert_eq!(v.num_edges(), 5);
        for e in g.edge_ids() {
            assert_eq!(v.edge(e), g.edge(e));
            assert_eq!(v.edge_weight(e), g.edge_weight(e));
        }
        for n in g.node_ids() {
            assert_eq!(v.degree(n), g.degree(n));
            assert_eq!(v.node_weight(n), g.node_weight(n));
            for i in 0..g.degree(n) {
                assert_eq!(v.neighbor(n, i), g.neighbors(n)[i]);
            }
        }
    }

    #[test]
    fn default_find_edge_matches_graph() {
        let g = diamond();
        for u in g.node_ids() {
            for v in g.node_ids() {
                if u == v {
                    continue;
                }
                assert_eq!(
                    GraphView::find_edge(&g, u, v),
                    WeightedGraph::find_edge(&g, u, v),
                    "{u:?}--{v:?}"
                );
            }
        }
    }
}
