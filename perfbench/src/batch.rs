//! batch-backends: one `BatchSession` per registered backend, each with
//! the chain `[name]`, over small random instances.
//!
//! An operation is one batch item, timed by the session's own ledger. A
//! pass draws a fresh group of instances and runs every backend's
//! session over it once; passes repeat until the run's time is up. Short
//! passes of equal composition keep every backend's share of the items
//! fixed however many passes fit. kway and metis do not enforce
//! Rmax/Bmax, so their answers are expected to be infeasible here.

use crate::check::{self, RefGraph};
use crate::ledger::{mean, median, Ledger};
use crate::sys::self_peak_rss_mib;
use crate::{core_counts, mix, phase_s, Args, Outcome, Traced, PARTITION_SEED};
use ppn_backend::{backend_names, BatchSession, Budget, PartitionInstance};
use ppn_gen::{random_graph, RandomGraphSpec};
use ppn_graph::Constraints;
use std::time::{Duration, Instant};

const NODES: usize = 2048;
const EDGES: usize = 3 * NODES;
const K: usize = 8;
/// Rmax in percent of the balanced share `W/k`.
const RMAX_PCT: u64 = 110;
/// Bmax in percent of `E/k²`.
const BMAX_PCT: u64 = 125;
/// Fresh instances per pass; each backend's session holds them all.
const GROUP: usize = 2;
/// Rounds of one-item sessions (one per backend) in the set-up.
const SETUP_ROUNDS: usize = 3;

/// Per-item layer times of one traced pass.
#[derive(Default)]
struct ItemTimes {
    item: Vec<f64>,
    attempt: Vec<f64>,
    attempts: Vec<f64>,
    /// (backend, item seconds)
    per_backend: Vec<(&'static str, f64)>,
    /// gp items: (coarsen, initial, refine, attempt)
    gp_phases: Vec<(f64, f64, f64, f64)>,
}

/// The `i`-th instance of the run and the checker's copy of it.
fn instance(args: &Args, i: usize) -> (PartitionInstance, RefGraph) {
    let g = random_graph(&RandomGraphSpec {
        nodes: NODES,
        edges: EDGES,
        node_weight: (20, 60),
        edge_weight: (1, 8),
        seed: mix(args.seed, 0xBA7C, i as u64),
    });
    let r = RefGraph::of(&g);
    let (w, e, k) = (r.total_node_weight(), r.total_edge_weight(), K as u64);
    let c = Constraints::new(
        (w * RMAX_PCT).div_ceil(100 * k),
        e * BMAX_PCT / (100 * k * k),
    );
    (PartitionInstance::from_graph(format!("b{i}"), g, K, c), r)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let first = instance(args, 0);
    let backends: Vec<&'static str> = backend_names();
    println!(
        "# batch-backends: {GROUP} fresh graphs per pass of {NODES} nodes / {EDGES} edges, k={K}, \
         Rmax={RMAX_PCT}% of W/k, Bmax={BMAX_PCT}% of E/k^2, one session per backend ({})",
        backends.join(", ")
    );
    let mut l = Ledger::default();

    // set-up: rounds of a one-item session per backend
    let mut setups = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        for &b in &backends {
            let mut session = BatchSession::new(Budget::unlimited()).with_chain([b]);
            session.push(first.0.clone());
            let summary = session.run(PARTITION_SEED).map_err(|e| e.to_string())?;
            let checked =
                verify(&summary.items[0], &first).and_then(|(cut, _)| l.cut(format!("{b}/0"), cut));
            if let Err(e) = checked {
                l.problem(format!("set-up session {b}: {e}"));
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    let min_passes = if args.trace { 2 } else { 1 };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut traced_e2e, mut plain_e2e) = (Vec::new(), Vec::new());
    let mut times = ItemTimes::default();
    let mut gp_first: Option<Vec<u32>> = None;
    let mut pass = 0;
    while pass < min_passes || start.elapsed() < budget {
        let traced_pass = args.trace && pass % 2 == 0;
        let inputs: Vec<_> = (pass * GROUP..(pass + 1) * GROUP)
            .map(|i| instance(args, i))
            .collect();
        for &b in &backends {
            let mut session = BatchSession::new(Budget::unlimited()).with_chain([b]);
            for (inst, _) in &inputs {
                session.push(inst.clone());
            }
            let t = Instant::now();
            let summary = session.run(PARTITION_SEED).map_err(|e| e.to_string())?;
            let wall = t.elapsed().as_secs_f64();
            let per_item = wall / summary.items.len() as f64;
            if traced_pass {
                traced_e2e.push(per_item);
            } else if args.trace {
                plain_e2e.push(per_item);
            }
            l.busy_s += wall - summary.items.iter().map(|it| it.seconds).sum::<f64>();
            for (item, (input, i)) in summary.items.iter().zip(inputs.iter().zip(pass * GROUP..)) {
                match verify(item, input)
                    .and_then(|(cut, f)| l.cut(format!("{b}/{i}"), cut).map(|_| f))
                {
                    Ok(feasible) => l.served(item.seconds, input.1.edges.len(), feasible),
                    Err(e) => {
                        l.failure(item.seconds, false, format!("{b} item {i}: {e}"));
                        continue;
                    }
                }
                let r = item.result.as_ref().expect("verified");
                let served_s: f64 = r
                    .attempts
                    .iter()
                    .filter(|a| a.error.is_none())
                    .map(|a| a.seconds)
                    .sum();
                if b == "gp" && i == 0 {
                    gp_first.get_or_insert_with(|| r.outcome.partition.assignment().to_vec());
                }
                if traced_pass {
                    times.item.push(item.seconds);
                    times.attempt.push(served_s);
                    times.attempts.push(r.attempts.len() as f64);
                    times.per_backend.push((b, item.seconds));
                    if b == "gp" {
                        let o = &r.outcome;
                        times.gp_phases.push((
                            phase_s(o, "coarsen"),
                            phase_s(o, "initial"),
                            phase_s(o, "refine"),
                            served_s,
                        ));
                    }
                }
            }
        }
        pass += 1;
    }
    println!("# passes={pass}");
    let traced = if args.trace {
        Some(traced_view(
            &backends,
            &first,
            gp_first,
            &times,
            &traced_e2e,
            &plain_e2e,
            &mut l,
        ))
    } else {
        None
    };
    Ok(Outcome {
        ledger: l,
        setup_s: median(&setups),
        peak_rss_mib: self_peak_rss_mib(),
        traced,
    })
}

/// Check one item against the checker; returns its edge cut and verdict.
fn verify(
    item: &ppn_backend::BatchItemResult,
    (inst, refg): &(PartitionInstance, RefGraph),
) -> Result<(u64, bool), String> {
    let r = item.result.as_ref().map_err(|e| e.to_string())?;
    let o = &r.outcome;
    let m = check::measure(refg, o.partition.assignment(), inst.k)?;
    check::agree(
        &m,
        o.cost.objective,
        o.cost.max_resource,
        o.cost.max_local_bandwidth,
    )?;
    let feasible = m.feasible(inst.constraints.rmax, inst.constraints.bmax);
    if feasible != o.feasible {
        return Err(format!(
            "outcome says feasible={}, checker says {feasible}",
            o.feasible
        ));
    }
    Ok((m.cut, feasible))
}

fn traced_view(
    backends: &[&'static str],
    (first, _): &(PartitionInstance, RefGraph),
    gp_first: Option<Vec<u32>>,
    t: &ItemTimes,
    traced_e2e: &[f64],
    plain_e2e: &[f64],
    l: &mut Ledger,
) -> Traced {
    let e2e = mean(traced_e2e);
    let attempt = mean(&t.attempt);
    let overhead = mean(
        &t.item
            .iter()
            .zip(&t.attempt)
            .map(|(i, a)| i - a)
            .collect::<Vec<_>>(),
    );
    let mut layers: Vec<(&'static str, f64)> = backends
        .iter()
        .filter_map(|&b| {
            let name = match b {
                "gp" => "backend.gp.item_s",
                "rb" => "backend.rb.item_s",
                "kway" => "backend.kway.item_s",
                "metis" => "backend.metis.item_s",
                "hyper" => "backend.hyper.item_s",
                _ => return None,
            };
            let xs: Vec<f64> = t
                .per_backend
                .iter()
                .filter(|p| p.0 == b)
                .map(|p| p.1)
                .collect();
            Some((name, median(&xs)))
        })
        .collect();
    let gp =
        |f: fn(&(f64, f64, f64, f64)) -> f64| mean(&t.gp_phases.iter().map(f).collect::<Vec<_>>());
    let (coarsen, initial, refine) = (gp(|p| p.0), gp(|p| p.1), gp(|p| p.2));
    let counts = core_counts(
        &first.graph,
        first.k,
        &first.constraints,
        gp_first.as_deref(),
        l,
    );
    layers.extend([
        ("backend.attempts_per_op", mean(&t.attempts)),
        ("core.coarsen_s", coarsen),
        ("core.initial_s", initial),
        ("core.refine_s", refine),
        ("core.other_s", gp(|p| p.3) - coarsen - initial - refine),
        ("trace.overhead_s", e2e - mean(plain_e2e)),
    ]);
    layers.extend(counts);
    Traced {
        e2e_s: e2e,
        spans: vec![
            ("backend.partition_s", attempt),
            ("batch.overhead_s", overhead),
        ],
        layers,
    }
}
