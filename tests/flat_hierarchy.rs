//! The shipping GP hierarchy vs its reference oracle, across the
//! conformance instance families.
//!
//! `gp_coarsen` appends compact CSR levels into one flat arena;
//! `gp_coarsen_reference` rebuilds every level as an owned
//! `WeightedGraph` with the original Lloyd-scan k-means,
//! `contract_reference` and absorbed-weight rescans. Both run the same
//! tournament, seeds and stall rule, so the hierarchies must be
//! *bit-identical*: same size trace, same per-level fine→coarse maps,
//! same winning heuristics, same coarse adjacency. This suite pins that
//! equivalence over every conformance instance family (paper
//! experiments, communities, multicast stars, chains, cliques,
//! degenerate shapes), re-generated per `CONFORMANCE_SEED` in the CI
//! seed matrix.

use ppn_partition::gp_core::{gp_coarsen, gp_coarsen_reference, gp_partition, GpParams};
use ppn_partition::ppn_backend::{conformance_matrix, degenerate_matrix};
use ppn_partition::ppn_graph::metrics::PartitionQuality;
use ppn_partition::ppn_graph::view::structural_diff;
use ppn_partition::ppn_graph::Budget;
use ppn_partition::{PartitionInstance, WeightedGraph};

fn matrix_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// All instances both suites run on, flattened into one family list.
fn all_instances(seed: u64) -> Vec<PartitionInstance> {
    let mut m = conformance_matrix(seed);
    m.extend(degenerate_matrix(seed));
    m
}

/// Assert the shipping hierarchy is bit-identical to the reference
/// oracle for one instance × (coarsen_to, seed) cell.
fn assert_hierarchies_identical(inst: &PartitionInstance, coarsen_to: usize, seed: u64) {
    let kinds = GpParams::default().effective_matchings();
    let ctx = format!("{} (coarsen_to {coarsen_to}, seed {seed})", inst.name);

    let unlimited = Budget::unlimited();
    let mut res = unlimited.begin_reservation();
    let (flat, cut_short) = gp_coarsen(
        &inst.graph,
        &kinds,
        coarsen_to,
        seed,
        &unlimited,
        &mut res,
        &mut |_| {},
    );
    assert_eq!(cut_short, None, "{ctx}: unlimited budget cut coarsening");
    let oracle = gp_coarsen_reference(&inst.graph, &kinds, coarsen_to, seed);
    let graphs: Vec<&WeightedGraph> = std::iter::once(&inst.graph)
        .chain(oracle.iter().map(|l| &l.coarse))
        .collect();

    assert_eq!(graphs.len(), flat.depth(), "{ctx}: depth");
    let sizes: Vec<usize> = graphs.iter().map(|g| g.num_nodes()).collect();
    assert_eq!(sizes, flat.size_trace(), "{ctx}: size trace");

    let winners: Vec<_> = oracle.iter().map(|l| l.matching_kind).collect();
    assert_eq!(winners, flat.winners, "{ctx}: tournament winners");

    for (i, level) in oracle.iter().enumerate() {
        assert_eq!(
            level.map.map,
            flat.map(i),
            "{ctx}: fine→coarse map at level {i}"
        );
    }
    for (i, g) in graphs.iter().enumerate() {
        // every graph's node weights, edges in id order, and adjacency
        // (neighbour order and edge ids)
        assert_eq!(
            structural_diff(*g, &flat.level(i)),
            None,
            "{ctx}: level {i} structure"
        );
    }
}

#[test]
fn flat_hierarchy_is_bit_identical_across_conformance_families() {
    let seed = matrix_seed();
    for inst in all_instances(seed) {
        for coarsen_to in [8, 40] {
            assert_hierarchies_identical(&inst, coarsen_to, seed ^ 0xF1A7);
        }
    }
}

#[test]
fn flat_hierarchy_is_bit_identical_across_seeds() {
    // the equivalence must hold for every tournament outcome, not just
    // one lucky seed — vary the coarsening seed on a fixed instance set
    let insts = all_instances(matrix_seed());
    for s in 0..4u64 {
        for inst in &insts {
            assert_hierarchies_identical(inst, 12, s);
        }
    }
}

#[test]
fn gp_partition_on_flat_hierarchy_stays_conformant() {
    // the full pipeline now runs on the arena: results must remain
    // deterministic, complete, and self-consistent on every family
    let seed = matrix_seed();
    for inst in all_instances(seed) {
        let params = GpParams {
            seed: seed ^ 0x9E37,
            ..GpParams::default()
        };
        let run = || match gp_partition(&inst.graph, inst.k, &inst.constraints, &params) {
            Ok(r) => (true, r),
            Err(e) => (false, e.best),
        };
        let (feas_a, a) = run();
        let (feas_b, b) = run();
        assert_eq!(feas_a, feas_b, "{}: verdict flapped", inst.name);
        assert_eq!(a.partition, b.partition, "{}: nondeterministic", inst.name);
        assert!(a.partition.is_complete(), "{}", inst.name);
        assert_eq!(a.partition.k(), inst.k, "{}", inst.name);
        // reported quality equals independent recomputation
        let q = PartitionQuality::measure(&inst.graph, &a.partition);
        assert_eq!(q.total_cut, a.quality.total_cut, "{}", inst.name);
        if feas_a {
            assert!(
                inst.constraints.check_quality(&q).is_feasible(),
                "{}: feasible verdict contradicts reference checker",
                inst.name
            );
        }
    }
}
