//! What a run counts: operations attempted and failed, checker
//! verdicts, the first cut seen per input, and latency samples.

use std::collections::BTreeMap;

/// How many failure messages a run keeps for its report.
const KEPT_NOTES: usize = 5;

#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    /// Operations that errored, panicked, exited badly or were rejected
    /// by the checker.
    pub failed: u64,
    /// Failures that are the known `drift_delta` defect.
    pub known_defect: u64,
    /// Returned partitions that violate Rmax or Bmax.
    pub infeasible: u64,
    /// Failures other than the known defect; any makes the run incorrect.
    pub unexpected: u64,
    /// Wall seconds of each successful operation.
    pub latencies: Vec<f64>,
    /// Wall seconds of every operation, failed ones included.
    pub busy_s: f64,
    /// Edges of the inputs of successful operations.
    pub edges: u64,
    cuts: BTreeMap<String, u64>,
    pub notes: Vec<String>,
}

impl Ledger {
    /// A served operation the checker accepted.
    pub fn served(&mut self, wall_s: f64, edges: usize, feasible: bool) {
        self.attempted += 1;
        self.busy_s += wall_s;
        self.latencies.push(wall_s);
        self.edges += edges as u64;
        if !feasible {
            self.infeasible += 1;
        }
    }

    /// A failed operation; `known` marks the counted generator defect.
    pub fn failure(&mut self, wall_s: f64, known: bool, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.busy_s += wall_s;
        if known {
            self.known_defect += 1;
        } else {
            self.unexpected += 1;
        }
        self.note(why);
    }

    /// A check that failed outside any counted operation (a warm-up, a
    /// cross-check): the run is incorrect but nothing is attempted.
    pub fn problem(&mut self, why: String) {
        self.unexpected += 1;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.notes.len() < KEPT_NOTES && !self.notes.contains(&why) {
            self.notes.push(why);
        }
    }

    /// Record the cut returned for input `key`. The same input must give
    /// the same cut every time within a run.
    pub fn cut(&mut self, key: String, cut: u64) -> Result<(), String> {
        match self.cuts.get(&key) {
            Some(&first) if first != cut => Err(format!(
                "input {key} returned cut {cut}, earlier in this run {first}"
            )),
            Some(_) => Ok(()),
            None => {
                self.cuts.insert(key, cut);
                Ok(())
            }
        }
    }

    /// Mean cut over the distinct inputs that returned a partition, each
    /// counted once.
    pub fn cut_mean(&self) -> f64 {
        self.cuts.values().sum::<u64>() as f64 / self.cuts.len().max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.unexpected == 0
    }

    pub fn frac(&self, count: u64) -> f64 {
        count as f64 / self.attempted.max(1) as f64
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample and its percentile. With ten samples or
/// fewer no such percentile exists and the maximum (p100) stands in.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (30.0, 75.0));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }

    #[test]
    fn repeated_inputs_must_repeat_their_cut() {
        let mut l = Ledger::default();
        l.cut("a".into(), 5).unwrap();
        l.cut("a".into(), 5).unwrap();
        l.cut("b".into(), 7).unwrap();
        assert!(l.cut("a".into(), 6).is_err());
        assert_eq!(l.cut_mean(), 6.0);
    }
}
