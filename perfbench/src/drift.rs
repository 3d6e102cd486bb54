//! drift-rmax: in-process `ppn_backend::repartition` steps over a random
//! graph under a tight Rmax.
//!
//! A pass is a fixed chain of drift steps from the cold base partition;
//! a run makes a fixed number of passes, so every step input recurs and
//! must return the same cut. Each step's delta comes from
//! `ppn_gen::drift_delta` unchanged. That generator can retire a node it
//! also drifted, and the program rightly rejects such a delta: the step
//! counts as failed and the chain goes on from the current instance.

use crate::check::{self, DeltaFault, RefGraph};
use crate::ledger::{mean, median, Ledger};
use crate::sys::self_peak_rss_mib;
use crate::{mix, phase_s, Args, Outcome, Traced, PARTITION_SEED};
use ppn_backend::{
    repartition, robust_partition, Budget, GraphDelta, PartitionInstance, RepartitionOptions,
};
use ppn_gen::{drift_delta, random_graph, RandomGraphSpec};
use ppn_graph::{Constraints, Partition};
use std::time::Instant;

const NODES: usize = 65_536;
const EDGES: usize = 262_144;
const K: usize = 16;
/// Rmax in permille of the balanced share `W/k`.
const RMAX_PERMILLE: u64 = 1020;
/// Share of the nodes one drift step perturbs.
const FRACTION: f64 = 0.05;
const STEPS_PER_PASS: usize = 24;
/// Cold partitions of the base instance in the set-up.
const SETUPS: usize = 3;
/// Steps per second of `--seconds`. The run is sized in steps, not by
/// the clock, so `attempted` and `failed` (which counts the generator
/// defect) are the same on every run of a seed. A step takes
/// 0.08-0.15 s on a 2-vCPU Xeon VM, so the run lasts about `--seconds`.
const STEPS_PER_SECOND: f64 = 7.0;

/// Whole passes enough for `--seconds` at `STEPS_PER_SECOND`; at least
/// two when tracing, which alternates traced and plain passes.
fn passes(args: &Args) -> usize {
    let min = if args.trace { 2 } else { 1 };
    let steps = args.seconds * STEPS_PER_SECOND;
    ((steps / STEPS_PER_PASS as f64).ceil() as usize).max(min)
}

/// Layer times of one served step.
struct Step {
    wall: f64,
    place: f64,
    refine: f64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let g = random_graph(&RandomGraphSpec {
        nodes: NODES,
        edges: EDGES,
        node_weight: (20, 60),
        edge_weight: (1, 8),
        seed: mix(args.seed, 0xD21F, 0),
    });
    let base_ref = RefGraph::of(&g);
    let rmax = (base_ref.total_node_weight() * RMAX_PERMILLE).div_ceil(1000 * K as u64);
    let bmax = base_ref.total_edge_weight();
    let base = PartitionInstance::from_graph("drift-base", g, K, Constraints::new(rmax, bmax));
    println!(
        "# drift-rmax: {NODES} nodes / {EDGES} edges, k={K}, Rmax={RMAX_PERMILLE} permille of W/k, \
         Bmax=E (not binding), {STEPS_PER_PASS} steps of {FRACTION} drift with one arrival and one \
         retirement per pass"
    );
    let mut l = Ledger::default();

    // set-up: the cold partition every pass starts from
    let mut setups = Vec::new();
    let mut base_part: Option<Partition> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let r = robust_partition(&base, PARTITION_SEED, &Budget::unlimited(), &[])
            .map_err(|e| format!("cold partition of the base failed: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        let p = r.outcome.partition;
        match check::measure(&base_ref, p.assignment(), K) {
            Ok(m) => {
                let c = &r.outcome.cost;
                if let Err(e) = check::agree(&m, c.objective, c.max_resource, c.max_local_bandwidth)
                {
                    l.problem(format!("cold base partition: {e}"));
                }
            }
            Err(e) => l.problem(format!("cold base partition: {e}")),
        }
        if base_part.as_ref().is_some_and(|b| *b != p) {
            l.problem("cold base partitions differ between set-ups".into());
        }
        base_part = Some(p);
    }
    let base_part = base_part.expect("SETUPS > 0");

    let opts = RepartitionOptions::default();
    let step_seed = mix(args.seed, 0xD21F, 1);
    let mut deltas: Vec<GraphDelta> = Vec::new();
    let (mut timed, mut plain) = (Vec::<Step>::new(), Vec::<f64>::new());
    let (mut warm, mut churn, mut attempts, mut migrated) = (0u64, Vec::new(), 0u64, Vec::new());
    let passes = passes(args);
    for pass in 0..passes {
        let traced_pass = args.trace && pass % 2 == 0;
        let mut cur = base.clone();
        let mut cur_ref = base_ref.clone();
        let mut prev = base_part.clone();
        for s in 0..STEPS_PER_PASS {
            if s == deltas.len() {
                deltas.push(drift_delta(
                    &cur.graph,
                    FRACTION,
                    true,
                    step_seed.wrapping_add(s as u64),
                ));
            }
            let delta = &deltas[s];
            let expected = check::apply_delta(&cur_ref, delta);
            let t = Instant::now();
            let result = repartition(
                &cur,
                &prev,
                delta,
                &opts,
                PARTITION_SEED,
                &Budget::unlimited(),
            );
            let wall = t.elapsed().as_secs_f64();
            let (r, applied) = match (result, expected) {
                (Ok(r), Ok(a)) => (r, a),
                (Err(e), Err(DeltaFault::DriftOnRetired(v))) => {
                    let why =
                        format!("step {s}: {e} (the delta drifts node {v}, which it retires)");
                    l.failure(wall, true, why);
                    continue;
                }
                (Err(e), _) => {
                    l.failure(wall, false, format!("step {s}: {e}"));
                    continue;
                }
                (Ok(_), Err(f)) => {
                    l.failure(
                        wall,
                        false,
                        format!("step {s}: accepted a delta the checker refuses: {f:?}"),
                    );
                    continue;
                }
            };
            let o = &r.outcome;
            let checked =
                check::measure(&applied.graph, o.partition.assignment(), K).and_then(|m| {
                    check::agree(
                        &m,
                        o.cost.objective,
                        o.cost.max_resource,
                        o.cost.max_local_bandwidth,
                    )?;
                    if applied.old_to_new != r.map.old_to_new {
                        return Err("index map differs from the checker's".into());
                    }
                    let mig = o.cost.migration.as_ref().ok_or("no migration report")?;
                    let mass =
                        check::migrated_mass(&applied, prev.assignment(), o.partition.assignment());
                    let total = applied.graph.total_node_weight();
                    if (mass, total) != (mig.mass, mig.total) {
                        return Err(format!(
                            "migration {}/{} reported, checker measures {mass}/{total}",
                            mig.mass, mig.total
                        ));
                    }
                    let feasible = m.feasible(rmax, bmax);
                    if feasible != o.feasible {
                        return Err(format!(
                            "outcome says feasible={}, checker says {feasible}",
                            o.feasible
                        ));
                    }
                    l.cut(s.to_string(), m.cut)?;
                    Ok((feasible, mig.fraction()))
                });
            match checked {
                Ok((feasible, migrated_frac)) => {
                    l.served(wall, applied.graph.edges.len(), feasible);
                    churn.push(delta.churn_fraction(cur.num_nodes()));
                    attempts += if r.warm_start {
                        1
                    } else {
                        r.attempts.len() as u64
                    };
                    if r.warm_start {
                        warm += 1;
                        migrated.push(migrated_frac);
                    }
                    if traced_pass {
                        timed.push(Step {
                            wall,
                            place: phase_s(o, "place"),
                            refine: phase_s(o, "refine"),
                        });
                    } else if args.trace {
                        plain.push(wall);
                    }
                }
                Err(e) => l.failure(wall, false, format!("step {s}: {e}")),
            }
            cur_ref = applied.graph;
            prev = r.outcome.partition;
            cur = r.instance;
        }
    }
    let served = (l.attempted - l.failed).max(1) as f64;
    let migration_frac = mean(&migrated);
    println!(
        "# passes={passes} warm_steps={warm} migration_frac={migration_frac:.6} (mean over warm steps)"
    );
    let traced = args.trace.then(|| {
        let e2e = mean(&timed.iter().map(|s| s.wall).collect::<Vec<_>>());
        let place = mean(&timed.iter().map(|s| s.place).collect::<Vec<_>>());
        let refine = mean(&timed.iter().map(|s| s.refine).collect::<Vec<_>>());
        Traced {
            e2e_s: e2e,
            spans: vec![
                ("repart.apply_s", e2e - place - refine),
                ("repart.place_s", place),
                ("repart.refine_s", refine),
            ],
            layers: vec![
                ("repart.warm_rate", warm as f64 / served),
                ("repart.churn", mean(&churn)),
                ("backend.attempts_per_op", attempts as f64 / served),
                ("migration_frac", migration_frac),
                ("trace.overhead_s", e2e - mean(&plain)),
            ],
        }
    });
    Ok(Outcome {
        ledger: l,
        setup_s: median(&setups),
        peak_rss_mib: self_peak_rss_mib(),
        traced,
    })
}
