//! Matching-heuristic ablation (DESIGN.md §7.1): each of the paper's
//! three coarsening heuristics alone versus the best-of-three selection
//! GP uses, on a 1024-node community graph. Reports both runtime (via
//! criterion) and the absorbed-weight quality (printed once).

use criterion::{criterion_group, criterion_main, Criterion};
use gp_core::coarsen::{best_matching_in, run_matching, MatchScratch};
use gp_core::MatchingKind;
use ppn_gen::community_graph;

fn bench_matching(c: &mut Criterion) {
    let g = community_graph(8, 128, 3, 10, 2, 5);

    println!(
        "matching quality on {} nodes (absorbed weight, higher is better):",
        g.num_nodes()
    );
    // the paper's three plus the node-scan HEM variant, so the sort-based
    // and node-scan heavy-edge strategies are directly comparable
    for kind in MatchingKind::WITH_NODE_SCAN {
        let m = run_matching(kind, &g, 42);
        println!(
            "  {kind:<13} absorbed={} pairs={}",
            m.absorbed_weight(&g),
            m.num_pairs()
        );
    }
    let mut scratch = MatchScratch::new();
    let (winner, best, _) = best_matching_in(&MatchingKind::ALL, &g, 42, &mut scratch);
    println!(
        "  best-of-3    absorbed={} pairs={} (winner: {winner})",
        best.absorbed_weight(&g),
        best.num_pairs()
    );

    let mut group = c.benchmark_group("matching");
    group.sample_size(30);
    for kind in MatchingKind::WITH_NODE_SCAN {
        group.bench_function(kind.to_string(), |b| {
            b.iter(|| run_matching(kind, &g, 42).num_pairs())
        });
    }
    group.bench_function("best_of_3", |b| {
        b.iter(|| {
            best_matching_in(&MatchingKind::ALL, &g, 42, &mut scratch)
                .1
                .num_pairs()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
