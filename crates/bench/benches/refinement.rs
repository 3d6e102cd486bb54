//! Refinement ablation (DESIGN.md §7.3/§7.4): the constrained FM-style
//! refinement of GP versus the unconstrained greedy k-way refinement,
//! and GP with a single V-cycle versus the cyclic re-coarsening scheme.

use criterion::{criterion_group, criterion_main, Criterion};
use gp_classic::kway::{kway_refine, KwayOptions};
use gp_core::refine::{constrained_refine, RefineOptions};
use gp_core::{gp_partition, GpParams};
use ppn_gen::community_graph;
use ppn_graph::{Constraints, Csr, Partition};

fn bench_refinement(c: &mut Criterion) {
    let g = community_graph(4, 64, 3, 10, 2, 7);
    let k = 4;
    let n = g.num_nodes();
    let cons = Constraints::new(
        (g.total_node_weight() as f64 / k as f64 * 1.3).ceil() as u64,
        g.total_edge_weight() / 4,
    );
    // scrambled start partition
    let scrambled: Vec<u32> = (0..n).map(|i| ((i * 31 + 7) % k) as u32).collect();
    let start = Partition::from_assignment(scrambled, k).unwrap();

    let mut group = c.benchmark_group("refinement");
    group.sample_size(20);
    let csr = Csr::from_graph(&g);
    group.bench_function("constrained_refine", |b| {
        b.iter(|| {
            let mut p = start.clone();
            constrained_refine(&csr, &mut p, &cons, &RefineOptions::default())
        })
    });
    group.bench_function("kway_refine_unconstrained", |b| {
        b.iter(|| {
            let mut p = start.clone();
            kway_refine(
                csr.view(),
                &mut p,
                &KwayOptions::balanced(csr.view(), k, 1.3),
            )
        })
    });
    group.bench_function("gp_single_cycle", |b| {
        b.iter(|| {
            let params = GpParams::default().single_cycle();
            match gp_partition(&g, k, &cons, &params) {
                Ok(r) => r.quality.total_cut,
                Err(e) => e.best.quality.total_cut,
            }
        })
    });
    group.bench_function("gp_cyclic", |b| {
        b.iter(|| {
            let params = GpParams {
                max_cycles: 4,
                ..GpParams::default()
            };
            match gp_partition(&g, k, &cons, &params) {
                Ok(r) => r.quality.total_cut,
                Err(e) => e.best.quality.total_cut,
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_refinement);
criterion_main!(benches);
