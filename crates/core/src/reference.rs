//! The reference oracles of gp-core: the original implementations of
//! coarsening and refinement, kept as independent checks of the
//! shipping paths.
//!
//! * [`gp_coarsen_reference`] rebuilds the GP hierarchy level by level
//!   as owned [`WeightedGraph`]s, with the original O(n·k) Lloyd-scan
//!   k-means, `find_edge`-probing [`contract_reference`] and
//!   [`Matching::absorbed_weight`](ppn_graph::matching::Matching::absorbed_weight)
//!   rescans, in its own tournament loop. It must produce the
//!   bit-identical size trace, maps, winners and coarse structure as
//!   [`gp_coarsen`](crate::coarsen::gp_coarsen).
//! * [`constrained_refine_reference`] is the pre-optimisation full-sweep
//!   refinement, kept verbatim in behaviour *and* asymptotics so the
//!   `perf` harness (ppn-bench) can price the boundary-driven rewrite:
//!   - every pass sweeps **all** nodes, not just the boundary;
//!   - candidate targets are gathered into a freshly allocated `Vec` per
//!     node; move evaluation builds a linear-scanned sparse pair list;
//!   - every applied move recomputes the total cut with an O(k²) matrix
//!     scan;
//!   - the pairwise-exchange repair evaluates each candidate swap by
//!     cloning the whole state and partition and applying both moves.
//!
//!   It satisfies the same contract as the optimised version (violations
//!   never increase; the cut never increases while feasible; identical
//!   fixed points) and the property suite runs the invariants against
//!   both. Do not "fix" its performance — that would silently rebase the
//!   benchmark.

use crate::coarsen::{EDGE_ORDER_STREAM, LEVEL_STREAM, STALL_RATIO};
use crate::kmeans::kmeans_matching_prepared_reference;
use crate::params::MatchingKind;
use crate::refine::{ConstrainedState, MoveDelta, RefineOptions};
use gp_classic::matching::{
    heavy_edge_matching_node_scan, heavy_edge_matching_prepared, shuffled_sorted_edges,
};
use ppn_graph::contract::{contract_reference, CoarseMap};
use ppn_graph::matching::random_maximal_matching;
use ppn_graph::metrics::CutMatrix;
use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::{Constraints, Csr, NodeId, Partition, WeightedGraph};
use std::cmp::Reverse;

/// One contraction of the reference hierarchy.
#[derive(Clone, Debug)]
pub struct ReferenceLevel {
    /// Fine→coarse map from the previous graph (the input for the first
    /// level).
    pub map: CoarseMap,
    /// Which heuristic won this level's tournament.
    pub matching_kind: MatchingKind,
    /// The coarse graph the contraction produced.
    pub coarse: WeightedGraph,
}

/// Reference GP coarsening: the same seeds, tournament criterion and
/// stall rule as [`gp_coarsen`](crate::coarsen::gp_coarsen), on the
/// original implementations. Returns one [`ReferenceLevel`] per
/// contraction, finest first; the input graph itself is not repeated.
pub fn gp_coarsen_reference(
    g: &WeightedGraph,
    kinds: &[MatchingKind],
    coarsen_to: usize,
    seed: u64,
) -> Vec<ReferenceLevel> {
    assert!(!kinds.is_empty(), "need at least one matching heuristic");
    let mut levels: Vec<ReferenceLevel> = Vec::new();
    let mut edges = Vec::new();
    loop {
        let current = levels.last().map_or(g, |l| &l.coarse);
        if current.num_nodes() <= coarsen_to {
            break;
        }
        let level_seed = derive_seed(seed, LEVEL_STREAM + levels.len() as u64);
        shuffled_sorted_edges(
            current,
            derive_seed(level_seed, EDGE_ORDER_STREAM),
            &mut edges,
        );
        let (_, matching_kind, m) = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let s = derive_seed(level_seed, i as u64);
                let m = match kind {
                    MatchingKind::Random => random_maximal_matching(current, s),
                    MatchingKind::HeavyEdge => heavy_edge_matching_prepared(current, &edges),
                    MatchingKind::KMeans => kmeans_matching_prepared_reference(current, s, &edges),
                    MatchingKind::HeavyEdgeNodeScan => heavy_edge_matching_node_scan(current, s),
                };
                let key = (m.absorbed_weight(current), m.num_pairs(), Reverse(i));
                (key, kind, m)
            })
            .max_by_key(|(key, _, _)| *key)
            .expect("at least one heuristic");
        if m.coarse_node_count() as f64 > current.num_nodes() as f64 * STALL_RATIO {
            break;
        }
        let (coarse, map) = contract_reference(current, &m);
        levels.push(ReferenceLevel {
            map,
            matching_kind,
            coarse,
        });
    }
    levels
}

/// O(k²) total-cut scan — the recompute the optimised path no longer
/// performs per move.
fn total_cut_scan(cut: &CutMatrix) -> u64 {
    let k = cut.k();
    let mut s = 0;
    for a in 0..k {
        for b in (a + 1)..k {
            s += cut.get(a, b);
        }
    }
    s
}

/// Original sparse pair-list move evaluation (linear-scan dedup).
fn evaluate_move_pairlist(
    state: &ConstrainedState,
    g: &WeightedGraph,
    p: &Partition,
    c: &Constraints,
    v: NodeId,
    to: u32,
    scratch: &mut Vec<(usize, i64)>,
) -> MoveDelta {
    let from = p.part_of(v);
    debug_assert_ne!(from, Partition::UNASSIGNED);
    if from == to {
        return MoveDelta { dviol: 0, dcut: 0 };
    }
    let k = state.cut.k();
    let (f, t) = (from as usize, to as usize);

    // per-pair traffic deltas caused by the move
    scratch.clear();
    let push = |scratch: &mut Vec<(usize, i64)>, a: usize, b: usize, d: i64| {
        if a == b {
            return;
        }
        let key = if a < b { a * k + b } else { b * k + a };
        if let Some(e) = scratch.iter_mut().find(|(p, _)| *p == key) {
            e.1 += d;
        } else {
            scratch.push((key, d));
        }
    };
    let mut dcut = 0i64;
    for &(u, e) in g.neighbors(v) {
        let q = p.part_of(u);
        if q == Partition::UNASSIGNED {
            continue;
        }
        let w = g.edge_weight(e) as i64;
        let q = q as usize;
        if q != f {
            push(scratch, f, q, -w);
            dcut -= w;
        }
        if q != t {
            push(scratch, t, q, w);
            dcut += w;
        }
    }

    // bandwidth violation delta over affected pairs
    let bmax = c.bmax;
    let mut dviol = 0i64;
    for &(key, d) in scratch.iter() {
        let (a, b) = (key / k, key % k);
        let cur = state.cut.get(a, b);
        let after = (cur as i64 + d) as u64;
        dviol += after.saturating_sub(bmax) as i64 - cur.saturating_sub(bmax) as i64;
    }

    // resource violation delta on the two parts
    let wv = g.node_weight(v);
    let rmax = c.rmax;
    let er = |x: u64| x.saturating_sub(rmax) as i64;
    let (wf, wt) = (state.part_weights[f], state.part_weights[t]);
    dviol += er(wt + wv) - er(wt) - (er(wf) - er(wf - wv));

    MoveDelta { dviol, dcut }
}

/// Full-sweep constrained refinement: nodes are visited in random
/// order; each node moves to the neighbouring part with the best
/// strictly-improving `(Δviolation, Δcut)`. Returns the number of
/// moves applied. Same contract as
/// [`constrained_refine`](crate::refine::constrained_refine) with the
/// default serial sweep, original (pre-boundary) cost model;
/// `opts.sweep` is ignored.
pub fn constrained_refine_reference(
    g: &WeightedGraph,
    p: &mut Partition,
    c: &Constraints,
    opts: &RefineOptions,
) -> usize {
    assert!(p.is_complete(), "refinement needs a complete partition");
    let k = p.k();
    let mut state = ConstrainedState::new(Csr::from_graph(g).view(), p);
    let mut rng = XorShift128Plus::new(derive_seed(opts.seed, 0xC0F1));
    let mut scratch: Vec<(usize, i64)> = Vec::new();
    let mut total_moves = 0;

    for _ in 0..opts.max_passes {
        let mut order: Vec<NodeId> = g.node_ids().collect();
        rng.shuffle(&mut order);
        let mut moves = 0;
        for v in order {
            let from = p.part_of(v) as usize;
            if opts.protect_nonempty && state.part_sizes[from] == 1 {
                continue;
            }
            // candidate targets: parts in the neighbourhood, plus the
            // lightest part when the source part violates Rmax
            let mut candidates: Vec<u32> = Vec::new();
            for &(u, _) in g.neighbors(v) {
                let q = p.part_of(u);
                if q != from as u32 && !candidates.contains(&q) {
                    candidates.push(q);
                }
            }
            if state.part_weights[from] > c.rmax {
                if let Some(light) = (0..k as u32)
                    .filter(|&t| t as usize != from)
                    .min_by_key(|&t| state.part_weights[t as usize])
                {
                    if !candidates.contains(&light) {
                        candidates.push(light);
                    }
                }
            }
            let mut best: Option<(MoveDelta, u32)> = None;
            for &t in &candidates {
                let d = evaluate_move_pairlist(&state, g, p, c, v, t, &mut scratch);
                if !d.improves() {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((bd, bt)) => (d.dviol, d.dcut, t) < (bd.dviol, bd.dcut, *bt),
                };
                if better {
                    best = Some((d, t));
                }
            }
            if let Some((_, t)) = best {
                state.apply_move(g, p, v, t);
                // the original recomputed the total from the matrix
                // after every applied move
                state.total_cut = total_cut_scan(&state.cut);
                moves += 1;
            }
        }
        total_moves += moves;
        if moves == 0 {
            let swaps = swap_pass_reference(g, p, c, &mut state);
            total_moves += swaps;
            if swaps == 0 {
                break;
            }
        }
    }
    total_moves
}

/// Original pairwise-exchange pass: the exact effect of a swap is
/// evaluated by applying both moves on a scratch **clone** of the state
/// and partition.
fn swap_pass_reference(
    g: &WeightedGraph,
    p: &mut Partition,
    c: &Constraints,
    state: &mut ConstrainedState,
) -> usize {
    let k = p.k();
    let mut swaps = 0;
    let mut progress = true;
    while progress && state.violation(c) > 0 {
        progress = false;
        let Some(over) = (0..k).find(|&a| state.part_weights[a] > c.rmax) else {
            break;
        };
        let viol_before = state.violation(c) as i64;
        let cut_before = state.total_cut as i64;
        let members = p.members();
        let mut best: Option<((i64, i64), NodeId, NodeId)> = None;
        for &u in &members[over] {
            let wu = g.node_weight(u);
            for b in (0..k).filter(|&b| b != over) {
                for &v in &members[b] {
                    let wv = g.node_weight(v);
                    if wv >= wu {
                        continue; // swap must lighten the violating part
                    }
                    // cheap resource prefilter before the exact check
                    let wa = state.part_weights[over];
                    let wb = state.part_weights[b];
                    let res_before =
                        (wa as i64 - c.rmax as i64).max(0) + (wb as i64 - c.rmax as i64).max(0);
                    let res_after = ((wa - wu + wv) as i64 - c.rmax as i64).max(0)
                        + ((wb - wv + wu) as i64 - c.rmax as i64).max(0);
                    if res_after >= res_before {
                        continue;
                    }
                    // exact evaluation on a scratch copy
                    let mut s2 = state.clone();
                    let mut p2 = p.clone();
                    s2.apply_move(g, &mut p2, u, b as u32);
                    s2.apply_move(g, &mut p2, v, over as u32);
                    let d = (
                        s2.violation(c) as i64 - viol_before,
                        s2.total_cut as i64 - cut_before,
                    );
                    if d.0 < 0 || (d.0 == 0 && d.1 < 0) {
                        match best {
                            Some((bd, _, _)) if bd <= d => {}
                            _ => best = Some((d, u, v)),
                        }
                    }
                }
            }
        }
        if let Some((_, u, v)) = best {
            let bu = p.part_of(v);
            state.apply_move(g, p, u, bu);
            state.apply_move(g, p, v, over as u32);
            swaps += 1;
            progress = true;
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;

    fn bw_tension() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(10)).collect();
        g.add_edge(n[0], n[1], 100).unwrap();
        g.add_edge(n[2], n[3], 100).unwrap();
        g.add_edge(n[1], n[2], 15).unwrap();
        g.add_edge(n[3], n[4], 15).unwrap();
        g.add_edge(n[4], n[5], 100).unwrap();
        g
    }

    #[test]
    fn reference_still_refines() {
        let g = bw_tension();
        let c = Constraints::new(30, 200);
        let mut p = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let before = edge_cut(&g, &p);
        constrained_refine_reference(&g, &mut p, &c, &RefineOptions::default());
        assert!(edge_cut(&g, &p) <= before);
        assert!(c.is_feasible(&g, &p));
    }

    #[test]
    fn reference_never_worsens_violation() {
        let g = bw_tension();
        let c = Constraints::new(30, 18);
        for seed in 0..8u64 {
            let assign: Vec<u32> = (0..6).map(|i| ((i + seed as usize) % 3) as u32).collect();
            let mut p = Partition::from_assignment(assign, 3).unwrap();
            let v_before = ConstrainedState::new(Csr::from_graph(&g).view(), &p).violation(&c);
            constrained_refine_reference(
                &g,
                &mut p,
                &c,
                &RefineOptions {
                    seed,
                    ..Default::default()
                },
            );
            let v_after = ConstrainedState::new(Csr::from_graph(&g).view(), &p).violation(&c);
            assert!(v_after <= v_before, "seed {seed}");
        }
    }

    #[test]
    fn reference_swap_pass_solves_tight_packing() {
        let mut g = WeightedGraph::new();
        let a = g.add_node(60);
        let b = g.add_node(45);
        let c0 = g.add_node(30);
        let d = g.add_node(40);
        let e = g.add_node(49);
        let f = g.add_node(35);
        g.add_edge(a, b, 9).unwrap();
        g.add_edge(b, c0, 9).unwrap();
        g.add_edge(d, e, 9).unwrap();
        g.add_edge(e, f, 9).unwrap();
        g.add_edge(c0, d, 3).unwrap();
        let cons = Constraints::new(133, 1000);
        let mut p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let moves = constrained_refine_reference(&g, &mut p, &cons, &RefineOptions::default());
        assert!(moves > 0);
        assert!(cons.is_feasible(&g, &p));
    }
}
