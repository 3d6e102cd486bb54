//! Graph contraction — the coarsening step of the multilevel scheme.
//!
//! Given a [`Matching`], each matched pair becomes one coarse node whose
//! weight is the *sum* of the pair's weights; unmatched nodes carry over
//! unchanged. Edges are re-targeted through the fine→coarse map; parallel
//! edges that arise are merged with summed weights, and edges internal to
//! a pair disappear (their weight is "absorbed"). These are exactly the
//! semantics described in §IV-A of the paper.
//!
//! Two invariants make contraction safe for partitioning, and are enforced
//! by tests and property tests:
//!
//! 1. total node weight is preserved;
//! 2. for any coarse partition, the cut on the coarse graph equals the cut
//!    of the projected partition on the fine graph.

use crate::graph::WeightedGraph;
use crate::ids::NodeId;
use crate::matching::Matching;

/// The fine→coarse node map produced by [`contract_reference`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseMap {
    /// `map[fine] = coarse` index.
    pub map: Vec<u32>,
    /// Number of coarse nodes.
    pub coarse_nodes: usize,
}

impl CoarseMap {
    /// Coarse node of a fine node.
    #[inline]
    pub fn coarse_of(&self, fine: NodeId) -> NodeId {
        NodeId(self.map[fine.index()])
    }

    /// Fine nodes grouped per coarse node.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut g = vec![Vec::new(); self.coarse_nodes];
        for (i, &c) in self.map.iter().enumerate() {
            g[c as usize].push(NodeId::from_index(i));
        }
        g
    }
}

/// First contraction pass: create coarse nodes (pairs when visiting the
/// smaller endpoint, singletons for unmatched nodes) and fill the
/// fine→coarse map.
/// Labels are combined as `"a+b"` for merged pairs so coarse nodes remain
/// traceable in DOT dumps.
fn build_coarse_nodes(
    g: &WeightedGraph,
    matching: &Matching,
    map: &mut [u32],
    coarse: &mut WeightedGraph,
) {
    for v in g.node_ids() {
        if map[v.index()] != u32::MAX {
            continue;
        }
        match matching.mate_of(v) {
            Some(u) => {
                let w = g.node_weight(v) + g.node_weight(u);
                let id = match (g.label(v), g.label(u)) {
                    (Some(a), Some(b)) => coarse.add_labeled_node(w, format!("{a}+{b}")),
                    _ => coarse.add_node(w),
                };
                map[v.index()] = id.0;
                map[u.index()] = id.0;
            }
            None => {
                let id = match g.label(v) {
                    Some(a) => coarse.add_labeled_node(g.node_weight(v), a.to_string()),
                    None => coarse.add_node(g.node_weight(v)),
                };
                map[v.index()] = id.0;
            }
        }
    }
}

/// Contract `g` along `matching`, producing the coarse graph and the
/// fine→coarse map: re-target every fine edge through the map and merge
/// parallels with `add_or_merge_edge`, which probes the coarse adjacency
/// list per edge (O(E · coarse degree) worst case). The shipping path is
/// [`LevelArena::contract_top`](crate::arena::LevelArena::contract_top),
/// bit-identical in structure and O(V + E); this one is its oracle and
/// `gp-core`'s `gp_coarsen_reference` builds its hierarchy with it.
pub fn contract_reference(g: &WeightedGraph, matching: &Matching) -> (WeightedGraph, CoarseMap) {
    assert_eq!(matching.len(), g.num_nodes(), "matching/graph mismatch");
    let n = g.num_nodes();
    let mut map = vec![u32::MAX; n];
    let mut coarse = WeightedGraph::new();
    build_coarse_nodes(g, matching, &mut map, &mut coarse);

    // Second pass: re-target edges through the map, merging parallels and
    // dropping intra-pair edges.
    for (u, v, w) in g.edges() {
        let (cu, cv) = (map[u.index()], map[v.index()]);
        if cu == cv {
            continue; // absorbed into the coarse node
        }
        coarse
            .add_or_merge_edge(NodeId(cu), NodeId(cv), w)
            .expect("coarse endpoints exist and differ");
    }

    let coarse_nodes = coarse.num_nodes();
    (coarse, CoarseMap { map, coarse_nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::random_maximal_matching;
    use crate::metrics::edge_cut;
    use crate::partition::Partition;

    fn k4() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(i + 1)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(n[i], n[j], (i + j) as u64 + 1).unwrap();
            }
        }
        g
    }

    #[test]
    fn contract_preserves_total_node_weight() {
        let g = k4();
        let m = random_maximal_matching(&g, 3);
        let (c, map) = contract_reference(&g, &m);
        assert_eq!(c.total_node_weight(), g.total_node_weight());
        assert_eq!(map.coarse_nodes, c.num_nodes());
        c.validate().unwrap();
    }

    #[test]
    fn contract_merges_parallel_edges() {
        // square 0-1-2-3-0; match (0,1) and (2,3): coarse graph has one
        // edge carrying the two cross edges 1-2 and 3-0.
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1)).collect();
        g.add_edge(n[0], n[1], 1).unwrap();
        g.add_edge(n[1], n[2], 2).unwrap();
        g.add_edge(n[2], n[3], 3).unwrap();
        g.add_edge(n[3], n[0], 4).unwrap();
        let mut m = Matching::empty(4);
        m.add_pair(n[0], n[1]);
        m.add_pair(n[2], n[3]);
        let (c, _) = contract_reference(&g, &m);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.num_edges(), 1);
        assert_eq!(c.total_edge_weight(), 6); // 2 + 4 cross, 1 + 3 absorbed
    }

    #[test]
    fn projected_cut_equals_coarse_cut() {
        let g = k4();
        for seed in 0..10 {
            let m = random_maximal_matching(&g, seed);
            let (c, map) = contract_reference(&g, &m);
            // arbitrary coarse partition: alternate parts
            let assign: Vec<u32> = (0..c.num_nodes() as u32).map(|i| i % 2).collect();
            let pc = Partition::from_assignment(assign, 2).unwrap();
            let pf = pc.project(&map.map);
            assert_eq!(edge_cut(&c, &pc), edge_cut(&g, &pf), "seed {seed}");
        }
    }

    #[test]
    fn singletons_carry_over() {
        let mut g = WeightedGraph::new();
        let a = g.add_labeled_node(5, "a");
        let b = g.add_labeled_node(6, "b");
        let c0 = g.add_labeled_node(7, "c");
        g.add_edge(a, b, 2).unwrap();
        g.add_edge(b, c0, 3).unwrap();
        let mut m = Matching::empty(3);
        m.add_pair(a, b);
        let (c, map) = contract_reference(&g, &m);
        assert_eq!(c.num_nodes(), 2);
        // merged node weight 11, singleton weight 7
        let weights: Vec<u64> = c.node_ids().map(|v| c.node_weight(v)).collect();
        assert!(weights.contains(&11) && weights.contains(&7));
        // label of merged node combines both
        let merged = map.coarse_of(a);
        assert_eq!(c.label(merged), Some("a+b"));
        assert_eq!(map.coarse_of(a), map.coarse_of(b));
        assert_ne!(map.coarse_of(a), map.coarse_of(c0));
    }

    #[test]
    fn empty_matching_gives_isomorphic_graph() {
        let g = k4();
        let m = Matching::empty(4);
        let (c, map) = contract_reference(&g, &m);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.total_edge_weight(), g.total_edge_weight());
        assert_eq!(map.groups().len(), 4);
    }

    #[test]
    fn groups_partition_fine_nodes() {
        let g = k4();
        let m = random_maximal_matching(&g, 11);
        let (_, map) = contract_reference(&g, &m);
        let groups = map.groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 4);
        for (ci, group) in groups.iter().enumerate() {
            assert!(!group.is_empty(), "coarse node {ci} has no fine nodes");
            for &f in group {
                assert_eq!(map.coarse_of(f).index(), ci);
            }
        }
    }
}
