//! # metis-lite
//!
//! A from-scratch Rust reimplementation of the *unconstrained* multilevel
//! k-way partitioning pipeline popularised by METIS (Karypis & Kumar,
//! SISC 1998) — the baseline the paper compares its constrained
//! partitioner against (Tables I–III use METIS 5.1.0 with default
//! parameters).
//!
//! Pipeline:
//!
//! 1. **Coarsening** — heavy-edge matching (node-scan variant) and
//!    contraction in a flat [`LevelArena`] until the graph is below
//!    `coarsen_to` nodes or stops shrinking (a matching that leaves more
//!    than 95% of the nodes, i.e. shrinks the graph by less than 5%);
//! 2. **Initial partitioning** — recursive bisection (greedy growing +
//!    FM) on the coarsest level;
//! 3. **Un-coarsening** — projection through each level followed by
//!    greedy direct k-way boundary refinement under a balance cap.
//!
//! Steps 2 and 3 read the arena's levels in place through
//! [`LevelView::csr_view`]; no level is rebuilt as a `WeightedGraph`.
//!
//! Exactly like METIS, the only "constraint" honoured is load balance
//! (the `ufactor`); bandwidth between part pairs and absolute per-part
//! resource caps are *not* modelled — which is the behaviour gap the
//! paper's GP algorithm fills (see `gp-core`).
//!
//! The [`rb`] module is the crate's second, *constrained* engine: a
//! multilevel recursive-bisection route to k parts that splits the
//! `Rmax` budget across subproblems and finishes with gp-core's
//! `Bmax`-aware k-way repair — the Schlag-style alternative to GP's
//! direct k-way cycle, exposed as the `rb` backend of `ppn-backend`.

pub mod options;
pub mod rb;

use gp_classic::bisect::recursive_bisection;
use gp_classic::kway::{kway_refine, KwayOptions};
use gp_classic::matching::heavy_edge_matching_node_scan;
use ppn_graph::arena::{LevelArena, LevelView};
use ppn_graph::matching::Matching;
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::derive_seed;
use ppn_graph::{CsrView, GraphView, Partition, WeightedGraph};

pub use options::MetisOptions;
pub use rb::{rb_partition, rb_partition_budgeted, RbInfeasible, RbParams, RbResult};

/// Result of a `metis-lite` run.
#[derive(Clone, Debug)]
pub struct KwayResult {
    /// The k-way partition of the input graph.
    pub partition: Partition,
    /// Quality metrics (cut, pairwise bandwidth, resources).
    pub quality: PartitionQuality,
    /// Number of multilevel levels used (1 = no coarsening happened).
    pub levels: usize,
}

/// Coarsen `arena` (seeded with level 0) in place: `matching(top,
/// round)` matches the top level, and the matching is contracted unless
/// it leaves more than 95% of the level's nodes (a stall — e.g. a star
/// matches only one pair per round). Stops at the first stall or once
/// the top level has at most `coarsen_to` nodes, and hands the arena
/// back; the refiners downstream read its levels through
/// [`LevelView::csr_view`].
pub(crate) fn coarsen_levels(
    mut arena: LevelArena,
    coarsen_to: usize,
    mut matching: impl FnMut(LevelView<'_>, u64) -> Matching,
) -> LevelArena {
    for round in 0.. {
        let top = arena.top();
        if top.num_nodes() <= coarsen_to {
            break;
        }
        let m = matching(top, round);
        if m.coarse_node_count() as f64 > top.num_nodes() as f64 * 0.95 {
            break;
        }
        arena.contract_top(&m);
    }
    arena
}

/// The METIS-style hierarchy of `g`: node-scan heavy-edge matching per
/// level.
fn heavy_edge_hierarchy(g: &WeightedGraph, coarsen_to: usize, seed: u64) -> LevelArena {
    coarsen_levels(LevelArena::from_graph(g), coarsen_to, |top, round| {
        heavy_edge_matching_node_scan(&top, derive_seed(seed, 0xC0A5 + round))
    })
}

/// Partition `g` into `k` parts minimising total edge cut under the
/// balance factor of `opts` (METIS semantics: no bandwidth or resource
/// constraints).
pub fn kway_partition(g: &WeightedGraph, k: usize, opts: &MetisOptions) -> KwayResult {
    assert!(k >= 1, "k must be at least 1");
    let n = g.num_nodes();
    if n == 0 {
        let partition = Partition::unassigned(0, k);
        let quality = PartitionQuality::measure(g, &partition);
        return KwayResult {
            partition,
            quality,
            levels: 1,
        };
    }
    if k == 1 {
        let partition = Partition::all_in_one(n, 1);
        let quality = PartitionQuality::measure(g, &partition);
        return KwayResult {
            partition,
            quality,
            levels: 1,
        };
    }

    // 1. coarsen
    ppn_graph::faultpoint::fault_point("metis", "kway");
    let _run = ppn_graph::trace::span("metis", "kway", n as i64);
    let sp = ppn_graph::trace::span("metis", "coarsen", n as i64);
    let arena = heavy_edge_hierarchy(g, opts.coarsen_to.max(2 * k), opts.seed);
    let top = arena.num_levels() - 1;
    let coarsest = arena.level(top).csr_view();
    drop(sp);

    // 2. initial partitioning on the coarsest level
    let sp = ppn_graph::trace::span("metis", "initial", coarsest.num_nodes() as i64);
    let mut part = recursive_bisection(coarsest, k, opts.ufactor, derive_seed(opts.seed, 0x1217));
    let refine_opts = |graph: CsrView<'_>, stream: u64| KwayOptions {
        max_part_weight: vec![
            ((graph.total_node_weight() as f64 / k as f64) * opts.ufactor).ceil()
                as u64
                + graph.max_node_weight();
            k
        ],
        max_passes: opts.refine_passes,
        seed: derive_seed(opts.seed, stream),
        protect_nonempty: true,
    };
    kway_refine(coarsest, &mut part, &refine_opts(coarsest, 0xF0));
    drop(sp);

    // 3. project back through the hierarchy, refining at each level
    let _ref = ppn_graph::trace::span("metis", "refine", top as i64);
    for i in (0..top).rev() {
        let _lvl = ppn_graph::trace::span("metis", "level", i as i64);
        part = part.project(arena.map_slice(i));
        let fine = arena.level(i).csr_view();
        kway_refine(fine, &mut part, &refine_opts(fine, 0xF1 + i as u64));
    }

    let quality = PartitionQuality::measure(g, &part);
    KwayResult {
        partition: part,
        quality,
        levels: top + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::{edge_cut, imbalance};
    use ppn_graph::{EdgeId, NodeId};

    fn grid(w: usize, h: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..w * h).map(|_| g.add_node(1)).collect();
        for r in 0..h {
            for c in 0..w {
                let i = r * w + c;
                if c + 1 < w {
                    g.add_edge(n[i], n[i + 1], 1).unwrap();
                }
                if r + 1 < h {
                    g.add_edge(n[i], n[i + w], 1).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn hierarchy_reaches_target_size() {
        let g = grid(20, 20); // 400 nodes
        let h = heavy_edge_hierarchy(&g, 100, 1);
        assert!(h.top().num_nodes() <= 100);
        assert!(h.num_levels() > 1);
    }

    #[test]
    fn weights_preserved_through_hierarchy() {
        let g = grid(16, 16);
        let h = heavy_edge_hierarchy(&g, 50, 2);
        for i in 0..h.num_levels() {
            let coarse = h.level(i);
            let n = coarse.num_nodes();
            assert_eq!(coarse.total_node_weight(), g.total_node_weight());
            for v in (0..n).map(NodeId::from_index) {
                assert!(coarse.node_weight(v) > 0, "level {i}: zero weight {v:?}");
            }
            for e in (0..coarse.num_edges()).map(EdgeId::from_index) {
                let (a, b, w) = coarse.edge(e);
                assert!(a != b && w > 0, "level {i}: bad edge {e:?}");
                assert!(a.index() < n && b.index() < n, "level {i}: {e:?}");
            }
            // every adjacency entry names an edge between its two ends,
            // every edge is named exactly twice, and no neighbour repeats
            let mut incidences = vec![0u32; coarse.num_edges()];
            let mut last_seen_from = vec![usize::MAX; n];
            for v in (0..n).map(NodeId::from_index) {
                for j in 0..coarse.degree(v) {
                    let (u, e) = coarse.neighbor(v, j);
                    let (a, b, _) = coarse.edge(e);
                    assert!((a, b) == (u, v) || (a, b) == (v, u), "level {i}");
                    incidences[e.index()] += 1;
                    assert_ne!(
                        last_seen_from[u.index()],
                        v.index(),
                        "level {i}: parallel edge"
                    );
                    last_seen_from[u.index()] = v.index();
                }
            }
            assert!(
                incidences.iter().all(|&c| c == 2),
                "level {i}: dangling edge"
            );
        }
    }

    #[test]
    fn small_graph_is_not_coarsened() {
        let g = grid(3, 3);
        let h = heavy_edge_hierarchy(&g, 100, 3);
        assert_eq!(h.num_levels(), 1);
    }

    #[test]
    fn star_graph_coarsening_terminates() {
        // a star can only contract one pair per round: the stall guard
        // must stop the loop
        let mut g = WeightedGraph::new();
        let hub = g.add_node(1);
        for _ in 0..50 {
            let leaf = g.add_node(1);
            g.add_edge(hub, leaf, 1).unwrap();
        }
        let h = heavy_edge_hierarchy(&g, 4, 4);
        assert!(
            h.num_levels() < 60,
            "coarsening should stall-stop, got {} levels",
            h.num_levels()
        );
    }

    #[test]
    fn maps_compose_to_input_size() {
        let g = grid(10, 10);
        let h = heavy_edge_hierarchy(&g, 20, 5);
        // follow node 0 down the hierarchy without panicking
        let mut idx = 0u32;
        for i in 0..h.num_levels() - 1 {
            idx = h.map_slice(i)[idx as usize];
        }
        assert!((idx as usize) < h.top().num_nodes());
    }

    fn clustered(clusters: usize, size: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..clusters * size).map(|_| g.add_node(2)).collect();
        for c in 0..clusters {
            let b = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(n[b + i], n[b + j], 20).unwrap();
                }
            }
        }
        for c in 0..clusters {
            let next = (c + 1) % clusters;
            g.add_edge(n[c * size], n[next * size + 1], 1).unwrap();
        }
        g
    }

    #[test]
    fn partitions_clustered_graph_along_clusters() {
        let g = clustered(4, 5);
        let r = kway_partition(&g, 4, &MetisOptions::default());
        assert!(r.partition.is_complete());
        // ideal: each cluster is one part; cut = the 4 weight-1 bridges
        assert_eq!(edge_cut(&g, &r.partition), 4);
        assert!(imbalance(&g, &r.partition) < 1.05);
    }

    #[test]
    fn quality_matches_partition() {
        let g = clustered(3, 4);
        let r = kway_partition(&g, 3, &MetisOptions::default());
        assert_eq!(r.quality.total_cut, edge_cut(&g, &r.partition));
        assert_eq!(
            r.quality.max_resource,
            *r.partition.part_weights(&g).iter().max().unwrap()
        );
    }

    #[test]
    fn k1_is_trivial() {
        let g = clustered(2, 3);
        let r = kway_partition(&g, 1, &MetisOptions::default());
        assert_eq!(r.quality.total_cut, 0);
        assert!(r.partition.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = WeightedGraph::new();
        let r = kway_partition(&g, 4, &MetisOptions::default());
        assert_eq!(r.partition.len(), 0);
    }

    #[test]
    fn all_parts_nonempty_for_reasonable_graphs() {
        let g = clustered(4, 6);
        for k in [2, 3, 4, 6] {
            let r = kway_partition(&g, k, &MetisOptions::default());
            let sizes = r.partition.part_sizes();
            assert!(
                sizes.iter().all(|&s| s > 0),
                "k={k} produced empty part: {sizes:?}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = clustered(4, 5);
        let a = kway_partition(&g, 4, &MetisOptions::default());
        let b = kway_partition(&g, 4, &MetisOptions::default());
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn multilevel_engages_on_larger_graphs() {
        // 200 nodes > default coarsen_to=100 → at least one level
        let g = clustered(10, 20);
        let r = kway_partition(&g, 4, &MetisOptions::default());
        assert!(r.levels > 1, "expected coarsening on a 200-node graph");
        assert!(r.partition.is_complete());
    }

    #[test]
    fn ignores_bandwidth_constraints_by_design() {
        // a graph engineered so the min-cut partition carries pairwise
        // traffic of 30: metis-lite happily returns it — a Bmax of 20
        // would be violated, and metis-lite has no notion of Bmax.
        let mut g = WeightedGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        let c = g.add_node(10);
        let d = g.add_node(10);
        g.add_edge(a, b, 100).unwrap();
        g.add_edge(c, d, 100).unwrap();
        g.add_edge(b, c, 30).unwrap();
        let r = kway_partition(&g, 2, &MetisOptions::default());
        assert_eq!(r.quality.total_cut, 30);
        assert_eq!(r.quality.max_local_bandwidth, 30);
    }
}
