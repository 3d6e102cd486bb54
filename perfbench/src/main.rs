//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --gp PATH --work DIR
//! ```
//!
//! Runs one workload as a closed loop from a single client for about
//! `S` seconds (always at least one full pass over its inputs), checks
//! every output with its own checker, prints a human-readable report
//! and, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same calls with a timer at
//! every layer boundary and reports the per-layer metrics. See
//! README.md for the workloads and the meaning of every metric.

mod batch;
mod check;
mod drift;
mod ledger;
mod oneshot;
mod sys;

use gp_core::{gp_partition_budgeted, GpParams};
use ledger::{median, tail, Ledger};
use ppn_backend::{Budget, PartitionOutcome};
use ppn_graph::{Constraints, WeightedGraph};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed every workload passes to the partitioner (the CLI default).
pub const PARTITION_SEED: u64 = 0xCA77A;

pub const WORKLOADS: &[&str] = &[
    "oneshot-tight",
    "oneshot-loose",
    "drift-rmax",
    "batch-backends",
];

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("latency_s", "s"),
    ("latency_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("edges_per_s", "edges/s"),
    ("cut", "count"),
    ("feasible_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1`. A workload that does
/// not enter a layer reports 0 for it (`n/a` in the text report).
const PER_LAYER: &[(&str, &str)] = &[
    ("cli.overhead_s", "s"),
    ("io.read_s", "s"),
    ("io.parse_s", "s"),
    ("io.parse_mb_per_s", "MB/s"),
    ("io.emit_s", "s"),
    ("backend.validate_s", "s"),
    ("backend.partition_s", "s"),
    ("backend.attempts_per_op", "count"),
    ("batch.overhead_s", "s"),
    ("backend.gp.item_s", "s"),
    ("backend.rb.item_s", "s"),
    ("backend.kway.item_s", "s"),
    ("backend.metis.item_s", "s"),
    ("backend.hyper.item_s", "s"),
    ("core.coarsen_s", "s"),
    ("core.initial_s", "s"),
    ("core.refine_s", "s"),
    ("core.other_s", "s"),
    ("core.cycles", "count"),
    ("core.levels", "count"),
    ("core.coarsest_nodes", "count"),
    ("repart.apply_s", "s"),
    ("repart.place_s", "s"),
    ("repart.refine_s", "s"),
    ("repart.warm_rate", "ratio"),
    ("repart.churn", "ratio"),
    ("unattributed_s", "s"),
    ("trace.e2e_s", "s"),
    ("trace.overhead_s", "s"),
    ("infeasible_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("migration_frac", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub gp: PathBuf,
    pub work: PathBuf,
}

/// The traced view of a run: per-operation means of the traced
/// end-to-end time and of the layer spans that partition it.
pub struct Traced {
    pub e2e_s: f64,
    /// Disjoint spans inside `e2e_s`; the remainder is `unattributed_s`.
    pub spans: Vec<(&'static str, f64)>,
    /// Every other per-layer value the workload measured.
    pub layers: Vec<(&'static str, f64)>,
}

/// What a workload hands back.
pub struct Outcome {
    pub ledger: Ledger,
    /// Median of the run's set-ups.
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub traced: Option<Traced>,
}

/// Seconds an outcome's `timings` record for `phase`.
pub fn phase_s(o: &PartitionOutcome, phase: &str) -> f64 {
    o.timings
        .iter()
        .filter(|t| t.phase == phase)
        .map(|t| t.seconds)
        .sum()
}

/// gp-core's own counts for one input with the gp backend's parameters:
/// `core.cycles`, `core.levels` and `core.coarsest_nodes` from
/// `GpResult` (the hierarchy of the selected attempt). The run is
/// marked incorrect unless `gp_partition` returns `backend_assign`, the
/// partition the gp backend gave the same input.
pub fn core_counts(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    backend_assign: Option<&[u32]>,
    l: &mut Ledger,
) -> [(&'static str, f64); 3] {
    let params = GpParams::default().with_seed(PARTITION_SEED);
    let r =
        gp_partition_budgeted(g, k, c, &params, &Budget::unlimited()).unwrap_or_else(|e| e.best);
    if backend_assign != Some(r.partition.assignment()) {
        l.problem("gp_partition and the gp backend disagree on the same input".into());
    }
    let hierarchy = r
        .trace
        .iter()
        .rev()
        .find(|t| t.selected)
        .or(r.trace.last())
        .map_or(&[][..], |t| t.hierarchy_sizes.as_slice());
    [
        ("core.cycles", r.cycles_used as f64),
        ("core.levels", hierarchy.len() as f64),
        (
            "core.coarsest_nodes",
            hierarchy.last().copied().unwrap_or(0) as f64,
        ),
    ]
}

/// Derive an independent stream seed for `(workload seed, purpose, i)`.
pub fn mix(seed: u64, salt: u64, i: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {name}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} takes a whole number"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
        gp: get("--gp")?.into(),
        work: get("--work")?.into(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# workload={} seed={} seconds={} trace={} clients=1 (closed loop) nproc={} rayon_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads()
    );
    let result = match args.workload.as_str() {
        "oneshot-tight" => oneshot::run(&oneshot::TIGHT, &args),
        "oneshot-loose" => oneshot::run(&oneshot::LOOSE, &args),
        "drift-rmax" => drift::run(&args),
        "batch-backends" => batch::run(&args),
        _ => unreachable!("checked in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(outcome) => {
            println!("{}", report(&outcome, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the text report and return the JSON result line.
fn report(o: &Outcome, trace: bool) -> String {
    let l = &o.ledger;
    let served = l.attempted - l.failed;
    let (tail_v, tail_p) = tail(&l.latencies);
    println!(
        "# ops attempted={} served={} failed={} (known drift_delta defect: {}) infeasible={}",
        l.attempted, served, l.failed, l.known_defect, l.infeasible
    );
    println!(
        "# infeasible_frac={:.4} failed_frac={:.4}",
        l.frac(l.infeasible),
        l.frac(l.failed)
    );
    for n in &l.notes {
        println!("# failure: {n}");
    }
    let mut values: Vec<(&str, f64)> = Vec::new();
    if trace {
        let t = o.traced.as_ref().expect("trace runs return a traced view");
        let spanned: f64 = t.spans.iter().map(|s| s.1).sum();
        let unattributed = t.e2e_s - spanned;
        println!("# traced e2e per op {:.6} s; layer shares:", t.e2e_s);
        for (name, v) in t
            .spans
            .iter()
            .chain([("unattributed_s", unattributed)].iter())
        {
            println!("#   {name:<22} {v:>12.6} s  {:>6.2}%", 100.0 * v / t.e2e_s);
        }
        println!(
            "# reconciliation: spans + unattributed - e2e = {:e} s",
            spanned + unattributed - t.e2e_s
        );
        values.extend(t.spans.iter().chain(&t.layers).copied());
        values.push(("unattributed_s", unattributed));
        values.push(("trace.e2e_s", t.e2e_s));
        values.push(("infeasible_frac", l.frac(l.infeasible)));
        values.push(("failed_frac", l.frac(l.failed)));
    } else {
        println!(
            "# latency median and tail (p{tail_p:.1}) over {} served ops",
            l.latencies.len()
        );
        values = vec![
            ("latency_s", median(&l.latencies)),
            ("latency_tail_s", tail_v),
            ("ops_per_s", served as f64 / l.busy_s),
            ("edges_per_s", l.edges as f64 / l.busy_s),
            ("cut", l.cut_mean()),
            (
                "feasible_frac",
                (served - l.infeasible) as f64 / served.max(1) as f64,
            ),
            ("peak_rss_mb", o.peak_rss_mib),
            ("setup_s", o.setup_s),
        ];
    }
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = values.iter().find(|v| v.0 == name).map(|v| v.1);
        match v {
            Some(v) => println!("# {name:<24} {v:>16.6} {unit}"),
            None => println!("# {name:<24} {:>16} {unit}", "n/a"),
        }
        let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        l.correct(),
        l.attempted,
        l.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The runner reports exactly the metrics and workloads that
    /// BENCHMARK.json declares, with the same units.
    #[test]
    fn tables_match_the_manifest() {
        let manifest: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        let listed = |key: &str| -> Vec<(String, String)> {
            let entries = manifest.get(key).and_then(Value::as_array).unwrap();
            entries
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads = manifest.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
    }
}
