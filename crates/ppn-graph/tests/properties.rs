//! Property-based tests for the graph substrate: contraction invariants,
//! induced-subproblem construction, incremental metric consistency, and
//! I/O round-trips on arbitrary graphs.

use ppn_graph::arena::LevelArena;
use ppn_graph::boundary::Boundary;
use ppn_graph::contract::contract_reference;
use ppn_graph::csr::Csr;
use ppn_graph::io::{matrix, metis};
use ppn_graph::matching::random_maximal_matching;
use ppn_graph::metrics::{edge_cut, CutMatrix};
use ppn_graph::partition::Partition;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::view::structural_diff;
use ppn_graph::{NodeId, WeightedGraph};
use proptest::prelude::*;

/// Strategy: a random simple graph with 2..=24 nodes, edge probability ~
/// controlled by the pair mask, weights in small ranges.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..24, any::<u64>(), 1u64..50, 1u64..20).prop_map(|(n, mask, wmax, emax)| {
        let mut g = WeightedGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(1 + (mask.rotate_left(i as u32) % wmax)))
            .collect();
        let mut bit = 0u32;
        for i in 0..n {
            for j in (i + 1)..n {
                bit = bit.wrapping_add(1);
                // pseudo-random inclusion driven by the mask
                if (mask.rotate_left(bit) & 3) == 0 {
                    let w = 1 + (mask.rotate_right(bit) % emax);
                    g.add_edge(ids[i], ids[j], w).unwrap();
                }
            }
        }
        g
    })
}

fn arb_partition(n: usize, k: usize, seed: u64) -> Partition {
    let assign: Vec<u32> = (0..n)
        .map(|i| ((seed.rotate_left(i as u32) ^ i as u64) % k as u64) as u32)
        .collect();
    Partition::from_assignment(assign, k).unwrap()
}

/// The `WeightedGraph` route to an induced subproblem, kept as the
/// oracle of [`LevelArena::induced`]: build the induced graph edge by
/// edge (each edge from its lower sub id, in selection and adjacency
/// order), then seed an arena from it.
fn induced_reference(g: &WeightedGraph, nodes: &[NodeId]) -> LevelArena {
    let mut to_sub = vec![u32::MAX; g.num_nodes()];
    let mut sub = WeightedGraph::new();
    for &v in nodes {
        to_sub[v.index()] = sub.add_node(g.node_weight(v)).0;
    }
    for &v in nodes {
        let sv = to_sub[v.index()];
        for &(u, e) in g.neighbors(v) {
            let su = to_sub[u.index()];
            if su != u32::MAX && sv < su {
                sub.add_edge(NodeId(sv), NodeId(su), g.edge_weight(e))
                    .unwrap();
            }
        }
    }
    LevelArena::from_graph(&sub)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn induced_level_matches_the_weighted_graph_route(
        g in arb_graph(),
        mask in any::<u64>(),
        seed in any::<u64>(),
        shuffle in any::<bool>()
    ) {
        let mut nodes: Vec<NodeId> = g
            .node_ids()
            .filter(|v| (mask >> (v.index() % 60)) & 1 == 1)
            .collect();
        if shuffle {
            XorShift128Plus::new(seed).shuffle(&mut nodes);
        }
        let csr = Csr::from_graph(&g);
        let built = LevelArena::induced(csr.view(), &nodes);
        let want = induced_reference(&g, &nodes);
        prop_assert_eq!(built.size_trace(), vec![nodes.len()]);
        // node weights, edges in id order, adjacency with edge ids
        prop_assert_eq!(structural_diff(&built.level(0), &want.level(0)), None);
        let (a, b) = (built.level(0).csr_view(), want.level(0).csr_view());
        prop_assert_eq!((a.xadj, a.adjncy, a.adjwgt), (b.xadj, b.adjncy, b.adjwgt));
        prop_assert_eq!(built.total_bytes(), want.total_bytes());
    }

    #[test]
    fn contraction_preserves_node_weight(g in arb_graph(), seed in any::<u64>()) {
        let m = random_maximal_matching(&g, seed);
        prop_assert!(m.validate(&g));
        prop_assert!(m.is_maximal(&g));
        let (c, map) = contract_reference(&g, &m);
        prop_assert_eq!(c.total_node_weight(), g.total_node_weight());
        prop_assert_eq!(map.coarse_nodes, c.num_nodes());
        c.validate().unwrap();
    }

    #[test]
    fn contraction_preserves_crossing_weight(g in arb_graph(), seed in any::<u64>()) {
        // total fine edge weight = coarse edge weight + absorbed weight
        let m = random_maximal_matching(&g, seed);
        let (c, _) = contract_reference(&g, &m);
        prop_assert_eq!(
            g.total_edge_weight(),
            c.total_edge_weight() + m.absorbed_weight(&g)
        );
    }

    #[test]
    fn matching_absorbed_tracks_scan(g in arb_graph(), seed in any::<u64>()) {
        let m = random_maximal_matching(&g, seed);
        prop_assert_eq!(m.absorbed(), m.absorbed_weight(&g));
    }

    #[test]
    fn projected_cut_matches_coarse_cut(g in arb_graph(), seed in any::<u64>(), k in 2usize..5) {
        let m = random_maximal_matching(&g, seed);
        let (c, map) = contract_reference(&g, &m);
        let pc = arb_partition(c.num_nodes(), k, seed);
        let pf = pc.project(&map.map);
        prop_assert_eq!(edge_cut(&c, &pc), edge_cut(&g, &pf));
        // pairwise matrices agree too
        let mc = CutMatrix::compute(&c, &pc);
        let mf = CutMatrix::compute(&g, &pf);
        prop_assert_eq!(mc, mf);
    }

    #[test]
    fn cut_matrix_total_matches_edge_cut(g in arb_graph(), seed in any::<u64>(), k in 2usize..6) {
        let p = arb_partition(g.num_nodes(), k, seed);
        let m = CutMatrix::compute(&g, &p);
        prop_assert_eq!(m.total_cut(), edge_cut(&g, &p));
    }

    #[test]
    fn incremental_moves_agree_with_recompute(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30)
    ) {
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut m = CutMatrix::compute(&g, &p);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = rp % k as u32;
            let from = p.part_of(n);
            m.apply_move(&g, &p, n, from, to);
            p.assign(n, to);
        }
        prop_assert_eq!(m, CutMatrix::compute(&g, &p));
    }

    #[test]
    fn incremental_aggregates_agree_with_scans(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        bmax in 0u64..40,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30)
    ) {
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut m = CutMatrix::compute(&g, &p);
        m.track_bmax(bmax);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = rp % k as u32;
            let from = p.part_of(n);
            m.apply_move(&g, &p, n, from, to);
            p.assign(n, to);
            let fresh = CutMatrix::compute(&g, &p);
            prop_assert_eq!(m.total_cut(), fresh.total_cut());
            prop_assert_eq!(m.tracked_excess(), fresh.violation_magnitude(bmax));
            prop_assert_eq!(m.violation_magnitude(bmax), m.tracked_excess());
        }
    }

    #[test]
    fn boundary_matches_fresh_after_random_moves(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..6,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..40)
    ) {
        let csr = Csr::from_graph(&g);
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut b = Boundary::new(&csr, &p);
        let mut rng = XorShift128Plus::new(seed);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = (rp ^ rng.next_u64() as u32) % k as u32;
            let from = p.part_of(n);
            b.apply_move(&csr, &p, n, from, to);
            p.assign(n, to);
        }
        let fresh = Boundary::new(&csr, &p);
        for v in g.node_ids() {
            prop_assert_eq!(b.conn(v), fresh.conn(v), "conn row of {:?}", v);
            prop_assert_eq!(b.conn_mask(v), fresh.conn_mask(v), "mask of {:?}", v);
            prop_assert_eq!(b.external(v), fresh.external(v), "ext of {:?}", v);
            prop_assert_eq!(b.is_boundary(v), fresh.is_boundary(v), "membership of {:?}", v);
        }
        let mut have: Vec<_> = b.nodes().to_vec();
        let mut want: Vec<_> = fresh.nodes().to_vec();
        have.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(have, want);
    }

    #[test]
    fn metis_roundtrip(g in arb_graph()) {
        let text = metis::write(&g);
        let g2 = metis::parse(&text).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.total_edge_weight(), g.total_edge_weight());
        for v in g.node_ids() {
            prop_assert_eq!(g2.node_weight(v), g.node_weight(v));
        }
        for (u, v, w) in g.edges() {
            let e = g2.find_edge(u, v).unwrap();
            prop_assert_eq!(g2.edge_weight(e), w);
        }
    }

    #[test]
    fn metis_parse_numbers_edges_by_lower_endpoint(g in arb_graph(), seed in any::<u64>()) {
        // Insert g's edges in a shuffled order and orientation, so its ids
        // and adjacency order differ from what the reader must produce.
        let mut edges: Vec<_> = g.edges().collect();
        let mut rng = XorShift128Plus::new(seed);
        rng.shuffle(&mut edges);
        let nodes_of = |g: &WeightedGraph| {
            let mut h = WeightedGraph::new();
            for &w in g.node_weights() {
                h.add_node(w);
            }
            h
        };
        let mut g = nodes_of(&g);
        for (u, v, w) in edges {
            let (a, b) = if rng.next_u64() & 1 == 0 { (u, v) } else { (v, u) };
            g.add_edge(a, b, w).unwrap();
        }
        // The reader's order: for each node u in order, its neighbours
        // v > u in ascending id order.
        let mut want = nodes_of(&g);
        for u in g.node_ids() {
            let mut higher: Vec<(NodeId, u64)> = g
                .neighbors(u)
                .iter()
                .filter(|&&(v, _)| v > u)
                .map(|&(v, e)| (v, g.edge_weight(e)))
                .collect();
            higher.sort_unstable();
            for (v, w) in higher {
                want.add_edge(u, v, w).unwrap();
            }
        }
        let text = metis::write(&g);
        let parsed = metis::parse(&text).unwrap();
        prop_assert_eq!(structural_diff(&parsed, &want), None);
        prop_assert_eq!(metis::write(&parsed), text);
    }

    #[test]
    fn matrix_roundtrip(g in arb_graph()) {
        let text = matrix::write(&g);
        let g2 = matrix::parse(&text).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, w) in g.edges() {
            let e = g2.find_edge(u, v).unwrap();
            prop_assert_eq!(g2.edge_weight(e), w);
        }
    }

    #[test]
    fn part_weights_sum_to_total_when_complete(g in arb_graph(), seed in any::<u64>(), k in 1usize..6) {
        let p = arb_partition(g.num_nodes(), k, seed);
        let weights = p.part_weights(&g);
        prop_assert_eq!(weights.iter().sum::<u64>(), g.total_node_weight());
    }
}
