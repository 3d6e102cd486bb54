//! Coarsening hot-path benches on the dense-community family (the same
//! graphs the `perf` harness scales over): each matching heuristic in
//! isolation — including the node-scan HEM variant against the paper's
//! sort-based HEM — and the arena's marker-array contraction against the
//! `find_edge`-probing reference.

use criterion::{criterion_group, criterion_main, Criterion};
use gp_core::coarsen::run_matching;
use gp_core::MatchingKind;
use ppn_gen::dense_community_graph;
use ppn_graph::arena::LevelArena;
use ppn_graph::contract::contract_reference;
use ppn_graph::matching::random_maximal_matching;

fn bench_coarsen(c: &mut Criterion) {
    let g = dense_community_graph(8, 256, (2, 9), 12, 2, 4, 99);

    let mut group = c.benchmark_group("coarsen_matching");
    group.sample_size(20);
    for kind in MatchingKind::WITH_NODE_SCAN {
        group.bench_function(kind.to_string(), |b| {
            b.iter(|| run_matching(kind, &g, 42).num_pairs())
        });
    }
    group.finish();

    let m = random_maximal_matching(&g, 42);
    let mut group = c.benchmark_group("contract");
    group.sample_size(20);
    group.bench_function("reference", |b| {
        b.iter(|| contract_reference(&g, &m).0.num_edges())
    });
    // Each iteration contracts a fresh copy of the one-level arena, so
    // the copy is part of the measured time.
    let base = LevelArena::from_graph(&g);
    group.bench_function("arena_contract_top", |b| {
        b.iter(|| base.clone().contract_top(&m))
    });
    group.finish();
}

criterion_group!(benches, bench_coarsen);
criterion_main!(benches);
