//! The one-shot workloads: `gp partition` through the binary on random
//! METIS graphs from `gp gen`'s generator.
//!
//! An operation is one CLI invocation, timed from spawn to reap. The
//! traced run interleaves three things on the same input: the CLI, the
//! in-process pipeline without timers, and the in-process pipeline with
//! a timer at every layer boundary. The pipeline makes the library
//! calls `gp partition` makes, in the same order.

use crate::check::{self, Measured, RefGraph};
use crate::ledger::{mean, median, Ledger};
use crate::sys::{run_child, ChildRun};
use crate::{core_counts, mix, phase_s, Args, Outcome, Traced, PARTITION_SEED};
use ppn_backend::{backend_by_name, validate_instance, Budget, PartitionInstance};
use ppn_gen::{random_graph, RandomGraphSpec};
use ppn_graph::io::{json, metis};
use ppn_graph::Constraints;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

pub struct Spec {
    pub name: &'static str,
    pub nodes: usize,
    pub edges: usize,
    pub k: usize,
    /// Rmax in percent of the balanced share `W/k`.
    pub rmax_pct: u64,
    /// Bmax in percent of `E/k²`; `None` sets Bmax to `E`, which never
    /// binds.
    pub bmax_pct: Option<u64>,
    /// Distinct graphs per run; operations cycle through them.
    pub instances: usize,
}

/// Inputs that get an untimed warm-up invocation; `setup_s` is the
/// median of these.
const WARM_UPS: usize = 3;

pub const TIGHT: Spec = Spec {
    name: "oneshot-tight",
    nodes: 65_536,
    edges: 262_144,
    k: 8,
    rmax_pct: 110,
    bmax_pct: Some(125),
    instances: 6,
};

pub const LOOSE: Spec = Spec {
    name: "oneshot-loose",
    nodes: 65_536,
    edges: 262_144,
    k: 8,
    rmax_pct: 200,
    bmax_pct: None,
    instances: 6,
};

struct Input {
    path: PathBuf,
    refg: RefGraph,
    k: usize,
    rmax: u64,
    bmax: u64,
    bytes: usize,
}

impl Input {
    fn edges(&self) -> usize {
        self.refg.edges.len()
    }
}

fn generate(spec: &Spec, args: &Args) -> Result<Vec<Input>, String> {
    (0..spec.instances)
        .map(|i| {
            let g = random_graph(&RandomGraphSpec {
                nodes: spec.nodes,
                edges: spec.edges,
                node_weight: (20, 60),
                edge_weight: (1, 8),
                seed: mix(args.seed, 0x0_5407, i as u64),
            });
            let refg = RefGraph::of(&g);
            let (w, e, k) = (
                refg.total_node_weight(),
                refg.total_edge_weight(),
                spec.k as u64,
            );
            let text = metis::write(&g);
            let path = args.work.join(format!("{}-{i}.metis", spec.name));
            fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Input {
                path,
                k: spec.k,
                rmax: (w * spec.rmax_pct).div_ceil(100 * k),
                bmax: spec.bmax_pct.map_or(e, |p| e * p / (100 * k * k)),
                bytes: text.len(),
                refg,
            })
        })
        .collect()
}

fn cli(gp: &Path, inp: &Input, out: &Path) -> Result<ChildRun, String> {
    let _ = fs::remove_file(out);
    let stderr = fs::File::create(out.with_extension("stderr")).map_err(|e| e.to_string())?;
    run_child(
        Command::new(gp)
            .arg("partition")
            .arg("--input")
            .arg(&inp.path)
            .args(["--k", &inp.k.to_string()])
            .args(["--rmax", &inp.rmax.to_string()])
            .args(["--bmax", &inp.bmax.to_string()])
            .arg("--out")
            .arg(out)
            .stderr(stderr),
    )
    .map_err(|e| format!("cannot run {}: {e}", gp.display()))
}

/// Check one CLI run: exit code against verdict, summary line and
/// `--out` JSON against the checker.
fn verify_cli(inp: &Input, run: &ChildRun, out: &Path) -> Result<(Measured, bool), String> {
    let code = run.exit_code.ok_or("gp was killed by a signal")?;
    let s = check::parse_cli_summary(&run.stdout)?;
    if !matches!((code, s.feasible), (0, true) | (1, false)) {
        return Err(format!("gp exited {code} with feasible={}", s.feasible));
    }
    let text = fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let (k, assign) = check::parse_partition_json(&text)?;
    if k != inp.k {
        return Err(format!("--out has k={k}, asked for {}", inp.k));
    }
    let m = check::measure(&inp.refg, &assign, k)?;
    check::agree(&m, s.cut, s.max_resource, s.max_bandwidth)?;
    let feasible = m.feasible(inp.rmax, inp.bmax);
    if feasible != s.feasible {
        return Err(format!(
            "gp says feasible={}, checker says {feasible}",
            s.feasible
        ));
    }
    Ok((m, feasible))
}

fn record_cli(l: &mut Ledger, i: usize, inp: &Input, run: &ChildRun, out: &Path) {
    let checked =
        verify_cli(inp, run, out).and_then(|(m, f)| l.cut(i.to_string(), m.cut).map(|_| f));
    match checked {
        Ok(feasible) => l.served(run.wall_s, inp.edges(), feasible),
        Err(e) => l.failure(
            run.wall_s,
            false,
            format!("{} input {i}: {e}", inp.path.display()),
        ),
    }
}

/// Layer times of one in-process pipeline run (zero where untimed).
#[derive(Default)]
struct Pipeline {
    e2e: f64,
    read: f64,
    parse: f64,
    validate: f64,
    partition: f64,
    emit: f64,
    coarsen: f64,
    initial: f64,
    refine: f64,
    bytes: usize,
    assign: Vec<u32>,
}

/// The library calls of `gp partition --input F --k K --rmax R --bmax B
/// --out O`, in its order; with `timed`, a clock read at every layer
/// boundary.
fn pipeline(inp: &Input, out: &Path, timed: bool) -> Result<(Pipeline, Measured, bool), String> {
    let t0 = Instant::now();
    let lap = |on: bool| on.then(Instant::now);
    let backend = backend_by_name("gp").ok_or("gp backend is not registered")?;
    let budget = Budget::unlimited();
    let path = inp.path.to_string_lossy();
    let t_start = lap(timed);
    let text = fs::read_to_string(&inp.path).map_err(|e| e.to_string())?;
    let t_read = lap(timed);
    let g = metis::parse(&text).map_err(|e| e.to_string())?;
    drop(text);
    let t_parse = lap(timed);
    let inst = PartitionInstance::from_graph(
        path.as_ref(),
        g,
        inp.k,
        Constraints::new(inp.rmax, inp.bmax),
    );
    validate_instance(&inst).map_err(|e| e.to_string())?;
    if inst.graph.max_node_weight() > inp.rmax {
        return Err("heaviest node exceeds Rmax".into());
    }
    let t_validate = lap(timed);
    let outcome = backend
        .partition(&inst, PARTITION_SEED, &budget)
        .map_err(|e| e.to_string())?;
    let t_partition = lap(timed);
    let summary = format!(
        "backend={} nodes={} edges={} k={} cut={} max_resource={} max_local_bandwidth={} => {}",
        outcome.backend,
        inst.graph.num_nodes(),
        inst.graph.num_edges(),
        inp.k,
        outcome.cost.objective,
        outcome.cost.max_resource,
        outcome.cost.max_local_bandwidth,
        outcome.report.summary()
    );
    fs::write(out, json::partition_to_json(&outcome.partition)).map_err(|e| e.to_string())?;
    std::hint::black_box(summary);
    let end = Instant::now();

    let span = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    let p = Pipeline {
        e2e: (end - t0).as_secs_f64(),
        read: span(t_start, t_read),
        parse: span(t_read, t_parse),
        validate: span(t_parse, t_validate),
        partition: span(t_validate, t_partition),
        emit: t_partition.map_or(0.0, |t| (end - t).as_secs_f64()),
        coarsen: phase_s(&outcome, "coarsen"),
        initial: phase_s(&outcome, "initial"),
        refine: phase_s(&outcome, "refine"),
        bytes: inp.bytes,
        assign: outcome.partition.assignment().to_vec(),
    };
    let m = check::measure(&inp.refg, &p.assign, inp.k)?;
    check::agree(
        &m,
        outcome.cost.objective,
        outcome.cost.max_resource,
        outcome.cost.max_local_bandwidth,
    )?;
    let feasible = m.feasible(inp.rmax, inp.bmax);
    if feasible != outcome.feasible {
        return Err(format!(
            "outcome says feasible={}, checker says {feasible}",
            outcome.feasible
        ));
    }
    Ok((p, m, feasible))
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let inputs = generate(spec, args)?;
    let out = args.work.join("out.json");
    println!(
        "# {}: {} graphs of {} nodes / {} edges, k={}, Rmax={}% of W/k, Bmax={}",
        spec.name,
        spec.instances,
        spec.nodes,
        spec.edges,
        spec.k,
        spec.rmax_pct,
        spec.bmax_pct
            .map_or("E (not binding)".to_string(), |p| format!("{p}% of E/k^2"))
    );
    let mut l = Ledger::default();

    // set-up: untimed warm-up invocations
    let mut setups = Vec::new();
    for (i, inp) in inputs.iter().enumerate().take(WARM_UPS) {
        let run = cli(&args.gp, inp, &out)?;
        setups.push(run.wall_s);
        match verify_cli(inp, &run, &out) {
            Ok((m, _)) => {
                if let Err(e) = l.cut(i.to_string(), m.cut) {
                    l.problem(e);
                }
            }
            Err(e) => l.problem(format!("warm-up on input {i}: {e}")),
        }
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut peak_rss = Vec::new();
    let (mut cli_s, mut plain, mut timed) = (Vec::new(), Vec::new(), Vec::<Pipeline>::new());
    let mut i = 0;
    while i < inputs.len() || start.elapsed() < budget {
        let j = i % inputs.len();
        let inp = &inputs[j];
        let run = cli(&args.gp, inp, &out)?;
        peak_rss.push(run.peak_rss_mib);
        record_cli(&mut l, j, inp, &run, &out);
        if args.trace {
            cli_s.push(run.wall_s);
            for on in [false, true] {
                let t = Instant::now();
                match pipeline(inp, &out, on) {
                    Ok((p, m, feasible)) => match l.cut(j.to_string(), m.cut) {
                        Ok(()) => {
                            l.served(p.e2e, inp.edges(), feasible);
                            if on {
                                timed.push(p)
                            } else {
                                plain.push(p.e2e)
                            }
                        }
                        Err(e) => l.failure(p.e2e, false, e),
                    },
                    Err(e) => l.failure(
                        t.elapsed().as_secs_f64(),
                        false,
                        format!("in-process input {j}: {e}"),
                    ),
                }
            }
        }
        i += 1;
    }
    let traced = if args.trace {
        Some(traced_view(&inputs[0], &cli_s, &plain, &timed, &mut l)?)
    } else {
        None
    };
    Ok(Outcome {
        ledger: l,
        setup_s: median(&setups),
        peak_rss_mib: median(&peak_rss),
        traced,
    })
}

fn traced_view(
    first: &Input,
    cli_s: &[f64],
    plain: &[f64],
    timed: &[Pipeline],
    l: &mut Ledger,
) -> Result<Traced, String> {
    let avg = |f: fn(&Pipeline) -> f64| mean(&timed.iter().map(f).collect::<Vec<_>>());
    let e2e = avg(|p| p.e2e);
    let partition = avg(|p| p.partition);
    let (coarsen, initial, refine) = (avg(|p| p.coarsen), avg(|p| p.initial), avg(|p| p.refine));
    let parse = avg(|p| p.parse);

    // gp-core's own view of the same input and parameters
    let text = fs::read_to_string(&first.path).map_err(|e| e.to_string())?;
    let g = metis::parse(&text).map_err(|e| e.to_string())?;
    let c = Constraints::new(first.rmax, first.bmax);
    let backend_assign = timed.first().map(|p| p.assign.as_slice());
    let counts = core_counts(&g, first.k, &c, backend_assign, l);

    Ok(Traced {
        e2e_s: e2e,
        spans: vec![
            ("io.read_s", avg(|p| p.read)),
            ("io.parse_s", parse),
            ("backend.validate_s", avg(|p| p.validate)),
            ("core.coarsen_s", coarsen),
            ("core.initial_s", initial),
            ("core.refine_s", refine),
            ("core.other_s", partition - coarsen - initial - refine),
            ("io.emit_s", avg(|p| p.emit)),
        ],
        layers: vec![
            ("cli.overhead_s", mean(cli_s) - e2e),
            ("io.parse_mb_per_s", avg(|p| p.bytes as f64) / parse / 1e6),
            ("backend.partition_s", partition),
            ("backend.attempts_per_op", 1.0),
            ("trace.overhead_s", e2e - mean(plain)),
        ]
        .into_iter()
        .chain(counts)
        .collect(),
    })
}
