//! Tuning parameters of the GP algorithm, with the paper's defaults.

use serde::{Deserialize, Serialize};

/// Which matching heuristics the coarsening phase may use (§IV-A lists
/// three; all are tried per level and the best contraction is kept).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchingKind {
    /// Random maximal matching.
    Random,
    /// Heavy-edge matching (descending edge-weight scan).
    HeavyEdge,
    /// K-means matching (weight-clustered pairing).
    KMeans,
    /// Heavy-edge matching in the METIS node-scan style (random node
    /// order, each node grabs its heaviest free neighbour). Not one of
    /// the paper's three; entered into the tournament only when
    /// [`GpParams::node_scan_hem`] is set.
    HeavyEdgeNodeScan,
}

impl MatchingKind {
    /// All three heuristics, the paper's configuration.
    pub const ALL: [MatchingKind; 3] = [
        MatchingKind::Random,
        MatchingKind::HeavyEdge,
        MatchingKind::KMeans,
    ];

    /// The paper's three plus the node-scan HEM variant (ablations and
    /// the matching bench).
    pub const WITH_NODE_SCAN: [MatchingKind; 4] = [
        MatchingKind::Random,
        MatchingKind::HeavyEdge,
        MatchingKind::KMeans,
        MatchingKind::HeavyEdgeNodeScan,
    ];
}

impl std::fmt::Display for MatchingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchingKind::Random => write!(f, "random"),
            MatchingKind::HeavyEdge => write!(f, "heavy-edge"),
            MatchingKind::KMeans => write!(f, "k-means"),
            MatchingKind::HeavyEdgeNodeScan => write!(f, "hem-node-scan"),
        }
    }
}

/// Parameters of [`GpPartitioner`](crate::GpPartitioner).
///
/// Defaults follow the paper: coarsen to 100 nodes, 10 initial-
/// partitioning restarts, all three matching heuristics, and a bounded
/// number of constraint-repair cycles before reporting infeasibility.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GpParams {
    /// Coarsening stops at this many nodes ("default is 100", §IV).
    pub coarsen_to: usize,
    /// Random restarts of the greedy initial partitioning ("10 is
    /// default", §IV-B).
    pub initial_restarts: usize,
    /// Matching heuristics tried at every coarsening level.
    pub matchings: Vec<MatchingKind>,
    /// Maximum cyclic un-coarsen/re-coarsen V-cycles before the
    /// partitioner reports that the constraints look unsatisfiable
    /// ("a predetermined number of iterations", §IV-C).
    pub max_cycles: usize,
    /// Intermediate re-clusterings explored per cycle, compared with the
    /// goodness function ("we generate different intermediate
    /// clusterings, that are compared a posteriori", §IV).
    pub intermediate_attempts: usize,
    /// Constrained-refinement sweeps per hierarchy level.
    pub refine_passes: usize,
    /// Root seed for every stochastic component.
    pub seed: u64,
    /// Evaluate restarts/matchings in parallel with rayon (results are
    /// identical either way; selection uses a total order).
    pub parallel: bool,
    /// Hierarchy levels with at least this many nodes refine with the
    /// parallel frozen-evaluation sweep
    /// ([`Sweep::Parallel`](crate::refine::Sweep::Parallel))
    /// instead of the serial engine — deterministic at any thread count
    /// and sharing the serial engine's fixed points, but free to take a
    /// different (equally valid) move sequence, so the default keeps
    /// every level below a million-node scale on the serial path and
    /// historical outputs bit-identical. Only effective when
    /// [`parallel`](GpParams::parallel) is set; `usize::MAX` disables.
    #[serde(default = "default_parallel_refine_min_nodes")]
    pub parallel_refine_min_nodes: usize,
    /// Enter the node-scan HEM variant as a fourth tournament entrant
    /// (off by default: the paper runs exactly three heuristics).
    pub node_scan_hem: bool,
}

fn default_parallel_refine_min_nodes() -> usize {
    200_000
}

impl Default for GpParams {
    fn default() -> Self {
        GpParams {
            coarsen_to: 100,
            initial_restarts: 10,
            matchings: MatchingKind::ALL.to_vec(),
            max_cycles: 10,
            intermediate_attempts: 3,
            refine_passes: 8,
            seed: 0xCA77A,
            parallel: true,
            parallel_refine_min_nodes: default_parallel_refine_min_nodes(),
            node_scan_hem: false,
        }
    }
}

impl GpParams {
    /// Same parameters, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restrict the matching heuristics (ablation studies).
    pub fn with_matchings(mut self, matchings: Vec<MatchingKind>) -> Self {
        assert!(!matchings.is_empty(), "at least one matching required");
        self.matchings = matchings;
        self
    }

    /// Disable the cyclic re-coarsening (single V-cycle; ablation).
    pub fn single_cycle(mut self) -> Self {
        self.max_cycles = 1;
        self.intermediate_attempts = 1;
        self
    }

    /// The matchings the coarsening tournament actually runs: the
    /// configured list, extended with node-scan HEM when
    /// [`node_scan_hem`](GpParams::node_scan_hem) is set.
    pub fn effective_matchings(&self) -> Vec<MatchingKind> {
        let mut kinds = self.matchings.clone();
        if self.node_scan_hem && !kinds.contains(&MatchingKind::HeavyEdgeNodeScan) {
            kinds.push(MatchingKind::HeavyEdgeNodeScan);
        }
        kinds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = GpParams::default();
        assert_eq!(p.coarsen_to, 100);
        assert_eq!(p.initial_restarts, 10);
        assert_eq!(p.matchings.len(), 3);
        assert!(p.max_cycles >= 1);
    }

    #[test]
    fn builders_compose() {
        let p = GpParams::default()
            .with_seed(7)
            .with_matchings(vec![MatchingKind::HeavyEdge])
            .single_cycle();
        assert_eq!(p.seed, 7);
        assert_eq!(p.matchings, vec![MatchingKind::HeavyEdge]);
        assert_eq!(p.max_cycles, 1);
    }

    #[test]
    #[should_panic]
    fn empty_matchings_rejected() {
        let _ = GpParams::default().with_matchings(vec![]);
    }

    #[test]
    fn matching_kind_display() {
        assert_eq!(MatchingKind::Random.to_string(), "random");
        assert_eq!(MatchingKind::HeavyEdge.to_string(), "heavy-edge");
        assert_eq!(MatchingKind::KMeans.to_string(), "k-means");
        assert_eq!(MatchingKind::HeavyEdgeNodeScan.to_string(), "hem-node-scan");
    }

    #[test]
    fn parallel_refine_threshold_defaults_when_absent() {
        // a params blob serialized before the field existed still parses
        // and lands on the documented default
        let old = r#"{"coarsen_to":100,"initial_restarts":10,"matchings":["Random"],
                      "max_cycles":10,"intermediate_attempts":3,"refine_passes":8,
                      "seed":1,"parallel":true,"node_scan_hem":false}"#;
        let p: GpParams = serde_json::from_str(old).unwrap();
        assert_eq!(p.parallel_refine_min_nodes, 200_000);
        assert_eq!(
            p.parallel_refine_min_nodes,
            GpParams::default().parallel_refine_min_nodes
        );
    }

    #[test]
    fn node_scan_flag_extends_the_tournament() {
        let p = GpParams::default();
        assert_eq!(p.effective_matchings(), MatchingKind::ALL.to_vec());
        let p = GpParams {
            node_scan_hem: true,
            ..GpParams::default()
        };
        assert_eq!(
            p.effective_matchings(),
            MatchingKind::WITH_NODE_SCAN.to_vec()
        );
        // idempotent when the kind is already listed
        let p = GpParams {
            node_scan_hem: true,
            matchings: MatchingKind::WITH_NODE_SCAN.to_vec(),
            ..GpParams::default()
        };
        assert_eq!(p.effective_matchings().len(), 4);
    }
}
