//! Golden partition hashes: every registry backend's output, pinned.
//!
//! For every backend (`gp`, `rb`, `kway`, `metis`, `hyper`) this suite
//! runs the regular and degenerate conformance families plus two random
//! graphs large enough to coarsen, at seeds 1, 2 and 3, and compares each
//! cell against the committed fixture `tests/fixtures/golden_partitions.txt`:
//!
//! * an FNV-1a-64 hash of the assignment and the outcome kind per cell;
//! * gp's coarsening size trace ([`gp_coarsen`]) per instance and seed;
//! * metis's hierarchy depth ([`KwayResult::levels`]) per instance and seed.
//!
//! Any refactor of the coarsening or refinement code must leave the
//! fixture byte-identical. There is deliberately no switch to rewrite it:
//! on a mismatch the test prints the full table it computed, so an
//! intended output change is a reviewed edit of the fixture file.
//!
//! The random graphs are sized so that gp, rb and metis each coarsen
//! through at least two levels (asserted below), so the pin covers the
//! hierarchy code and not only the small instances that never coarsen.

use ppn_partition::gp_core::{gp_coarsen, GpParams, MatchingKind};
use ppn_partition::metis_lite::{kway_partition, MetisOptions, RbParams};
use ppn_partition::ppn_backend::{backends, conformance_matrix, degenerate_matrix};
use ppn_partition::ppn_gen::{random_graph, RandomGraphSpec};
use ppn_partition::ppn_graph::Budget;
use ppn_partition::{Constraints, PartitionInstance, PartitionOutcome, WeightedGraph};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/golden_partitions.txt");
const SEEDS: [u64; 3] = [1, 2, 3];

/// FNV-1a, 64-bit, over the little-endian bytes of `k` and every part id.
fn fnv1a64(k: usize, assignment: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = (k as u64)
        .to_le_bytes()
        .into_iter()
        .chain(assignment.iter().flat_map(|p| p.to_le_bytes()));
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn outcome_kind(out: &PartitionOutcome) -> &'static str {
    match (out.feasible, out.completion.is_degraded()) {
        (true, false) => "feasible",
        (false, false) => "infeasible",
        (true, true) => "feasible-degraded",
        (false, true) => "infeasible-degraded",
    }
}

/// A random graph with 3 edges per node, k = 8, `Rmax` at 1.10× the
/// per-part share and `Bmax` ≈ 1.25·W/k².
fn large_instance(name: &str, nodes: usize, seed: u64) -> PartitionInstance {
    let k = 8;
    let g = random_graph(&RandomGraphSpec {
        nodes,
        edges: 3 * nodes,
        node_weight: (1, 9),
        edge_weight: (1, 9),
        seed,
    });
    let share = g.total_node_weight() as f64 / k as f64;
    let bmax = (1.25 * g.total_edge_weight() as f64 / (k * k) as f64).ceil() as u64;
    let c = Constraints::new((share * 1.10).ceil() as u64, bmax);
    PartitionInstance::from_graph(name, g, k, c)
}

fn instances(seed: u64) -> Vec<PartitionInstance> {
    let mut m = conformance_matrix(seed);
    m.extend(degenerate_matrix(seed));
    m.push(large_instance("random-600", 600, 0x6A1 ^ seed));
    m.push(large_instance("random-1000", 1000, 0x6A2 ^ seed));
    m
}

/// gp's unbudgeted coarsening size trace, finest first.
fn size_trace(
    g: &WeightedGraph,
    kinds: &[MatchingKind],
    coarsen_to: usize,
    seed: u64,
) -> Vec<usize> {
    let mut res = Budget::unlimited().begin_reservation();
    let (h, _) = gp_coarsen(
        g,
        kinds,
        coarsen_to,
        seed,
        &Budget::unlimited(),
        &mut res,
        &mut |_| {},
    );
    h.size_trace()
}

fn trace_str(t: &[usize]) -> String {
    t.iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn every_backend_matches_the_golden_fixture() {
    let gp = GpParams::default();
    let rb = RbParams::default();
    let mut table = String::new();
    for seed in SEEDS {
        for inst in instances(seed) {
            let name = &inst.name;
            for b in backends() {
                let out = b.run(&inst, seed);
                let h = fnv1a64(inst.k, out.partition.assignment());
                writeln!(
                    table,
                    "cell {seed} {name} {} {} {h:016x}",
                    b.name(),
                    outcome_kind(&out)
                )
                .unwrap();
            }
            let gp_trace = size_trace(&inst.graph, &gp.effective_matchings(), gp.coarsen_to, seed);
            writeln!(table, "gp-trace {seed} {name} {}", trace_str(&gp_trace)).unwrap();
            let levels = kway_partition(
                &inst.graph,
                inst.k,
                &MetisOptions::default().with_seed(seed),
            )
            .levels;
            writeln!(table, "metis-levels {seed} {name} {levels}").unwrap();

            if name.starts_with("random-") {
                assert!(
                    gp_trace.len() >= 3,
                    "{name}: gp must coarsen through >= 2 levels: {gp_trace:?}"
                );
                assert!(
                    levels >= 3,
                    "{name}: metis must coarsen through >= 2 levels: {levels}"
                );
                // rb's root subproblem is the whole graph, coarsened by
                // gp's matching tournament down to rb's floor
                let rb_trace = size_trace(&inst.graph, &rb.matchings, rb.coarsen_to.max(4), seed);
                assert!(
                    rb_trace.len() >= 3,
                    "{name}: rb must coarsen through >= 2 levels: {rb_trace:?}"
                );
            }
        }
    }
    if table != FIXTURE {
        let diff: Vec<String> = table
            .lines()
            .zip(FIXTURE.lines())
            .filter(|(got, want)| got != want)
            .map(|(got, want)| format!("  got  {got}\n  want {want}"))
            .collect();
        panic!(
            "golden partitions changed ({} differing lines; {} vs {} lines)\n{}\n\
             full table:\n{table}",
            diff.len(),
            table.lines().count(),
            FIXTURE.lines().count(),
            diff.join("\n")
        );
    }
}
