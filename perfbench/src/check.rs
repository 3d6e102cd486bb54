//! The benchmark's own output checker.
//!
//! It keeps its own copy of every generated input and recomputes, for
//! each returned partition, completeness, the edge cut, the per-part
//! resources and the heaviest pairwise link, and (for drift steps) the
//! migrated mass. None of it goes through `ppn_graph::metrics` or the
//! program's delta code, so a bug there cannot vouch for itself.

use ppn_graph::{GraphDelta, WeightedGraph};
use std::collections::HashMap;

/// Marks a base node that a delta removed.
const GONE: u32 = u32::MAX;

/// Node weights and an undirected edge list, nothing else.
#[derive(Clone)]
pub struct RefGraph {
    pub node_w: Vec<u64>,
    pub edges: Vec<(u32, u32, u64)>,
}

impl RefGraph {
    pub fn of(g: &WeightedGraph) -> Self {
        RefGraph {
            node_w: g.node_weights().to_vec(),
            edges: g.edges().map(|(u, v, w)| (u.0, v.0, w)).collect(),
        }
    }

    pub fn total_node_weight(&self) -> u64 {
        self.node_w.iter().sum()
    }

    pub fn total_edge_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.2).sum()
    }
}

/// What the checker measured for one partition.
pub struct Measured {
    pub cut: u64,
    pub max_resource: u64,
    pub max_bandwidth: u64,
}

impl Measured {
    pub fn feasible(&self, rmax: u64, bmax: u64) -> bool {
        self.max_resource <= rmax && self.max_bandwidth <= bmax
    }
}

/// Measure `assign` (a k-way assignment) over `g`.
pub fn measure(g: &RefGraph, assign: &[u32], k: usize) -> Result<Measured, String> {
    if assign.len() != g.node_w.len() {
        return Err(format!(
            "assignment covers {} nodes, the input has {}",
            assign.len(),
            g.node_w.len()
        ));
    }
    let mut part_resources = vec![0u64; k];
    for (v, (&p, &w)) in assign.iter().zip(&g.node_w).enumerate() {
        if p as usize >= k {
            return Err(format!("node {v} is in part {p}, outside [0,{k})"));
        }
        part_resources[p as usize] += w;
    }
    let mut pair = vec![0u64; k * k];
    let mut cut = 0;
    for &(u, v, w) in &g.edges {
        let (a, b) = (assign[u as usize] as usize, assign[v as usize] as usize);
        if a != b {
            cut += w;
            pair[a.min(b) * k + a.max(b)] += w;
        }
    }
    Ok(Measured {
        cut,
        max_resource: part_resources.iter().copied().max().unwrap_or(0),
        max_bandwidth: pair.iter().copied().max().unwrap_or(0),
    })
}

/// Compare the checker's numbers with what the program reported.
pub fn agree(m: &Measured, cut: u64, max_resource: u64, max_bandwidth: u64) -> Result<(), String> {
    if (m.cut, m.max_resource, m.max_bandwidth) == (cut, max_resource, max_bandwidth) {
        Ok(())
    } else {
        Err(format!(
            "program reports cut={cut} max_resource={max_resource} max_bw={max_bandwidth}, \
             checker measures cut={} max_resource={} max_bw={}",
            m.cut, m.max_resource, m.max_bandwidth
        ))
    }
}

/// Read `k` and the assignment out of a partition JSON file
/// (`{"k": K, "assign": [..]}`) with a scanner of our own.
pub fn parse_partition_json(text: &str) -> Result<(usize, Vec<u32>), String> {
    let after = |key: &str| {
        text.find(key)
            .map(|i| &text[i + key.len()..])
            .ok_or(format!("partition JSON lacks {key}"))
    };
    let k_text = after("\"k\"")?;
    let k: usize = k_text
        .trim_start_matches(|c: char| c == ':' || c.is_whitespace())
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("partition JSON has no numeric k")?;
    let body = after("\"assign\"")?;
    let open = body.find('[').ok_or("assign is not an array")?;
    let close = body.find(']').ok_or("assign array is not closed")?;
    let assign = body[open + 1..close]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u32>().map_err(|_| format!("bad part id `{s}`")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((k, assign))
}

/// The fields of `gp partition`'s summary line (`backend=.. cut=.. =>
/// feasible|INFEASIBLE: ..`).
pub struct CliSummary {
    pub cut: u64,
    pub max_resource: u64,
    pub max_bandwidth: u64,
    pub feasible: bool,
}

pub fn parse_cli_summary(stdout: &str) -> Result<CliSummary, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("backend="))
        .ok_or("no summary line on stdout")?;
    let (fields, verdict) = line
        .split_once(" => ")
        .ok_or("summary line has no verdict")?;
    let field = |name: &str| -> Result<u64, String> {
        fields
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or(format!("summary line lacks {name}"))
    };
    Ok(CliSummary {
        cut: field("cut")?,
        max_resource: field("max_resource")?,
        max_bandwidth: field("max_local_bandwidth")?,
        feasible: verdict == "feasible",
    })
}

/// A delta applied by the checker: the successor graph and where each
/// base node went (`u32::MAX` for removed ones).
pub struct Applied {
    pub graph: RefGraph,
    pub old_to_new: Vec<u32>,
}

/// Why the checker refused a delta.
#[derive(Debug, PartialEq, Eq)]
pub enum DeltaFault {
    /// The delta re-weights a node that it also retires — the known
    /// `ppn_gen::drift_delta` defect.
    DriftOnRetired(u32),
    Other(String),
}

/// Apply `d` to `g` with the semantics documented on `GraphDelta`:
/// edits name base indices (inserted nodes take `n, n+1, ..`), edge
/// edits must name base edges, a retired node takes its edges along,
/// survivors keep their order and inserted nodes follow them.
pub fn apply_delta(g: &RefGraph, d: &GraphDelta) -> Result<Applied, DeltaFault> {
    let other = |why: String| Err(DeltaFault::Other(why));
    let n = g.node_w.len();
    let virt_n = n + d.add_nodes.len();
    let zero = d.add_nodes.contains(&0)
        || d.node_drift.iter().any(|x| x.1 == 0)
        || d.add_edges.iter().any(|x| x.2 == 0)
        || d.edge_drift.iter().any(|x| x.2 == 0);
    if zero {
        return other("zero weight".into());
    }
    let mut removed = vec![false; n];
    for &r in &d.remove_nodes {
        match removed.get_mut(r as usize) {
            Some(x) => *x = true,
            None => return other(format!("removes missing node {r}")),
        }
    }
    let mut w = g.node_w.clone();
    for &(v, nw) in &d.node_drift {
        match removed.get(v as usize) {
            None => return other(format!("drifts missing node {v}")),
            Some(true) => return Err(DeltaFault::DriftOnRetired(v)),
            Some(false) => w[v as usize] = nw,
        }
    }
    let key = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut edges: HashMap<(u32, u32), u64> =
        g.edges.iter().map(|&(u, v, ew)| (key(u, v), ew)).collect();
    for &(u, v, ew) in &d.edge_drift {
        match edges.get_mut(&key(u, v)) {
            Some(x) => *x = ew,
            None => return other(format!("drifts missing edge {u}-{v}")),
        }
    }
    for &(u, v) in &d.remove_edges {
        if edges.remove(&key(u, v)).is_none() {
            return other(format!("removes missing edge {u}-{v}"));
        }
    }
    let mut old_to_new = vec![GONE; n];
    let mut node_w = Vec::with_capacity(virt_n);
    for v in 0..n {
        if !removed[v] {
            old_to_new[v] = node_w.len() as u32;
            node_w.push(w[v]);
        }
    }
    let survivors = node_w.len() as u32;
    node_w.extend(&d.add_nodes);
    let to_new = |x: u32| match (x as usize).checked_sub(n) {
        None => Some(old_to_new[x as usize]).filter(|&j| j != GONE),
        Some(i) => (i < d.add_nodes.len()).then_some(survivors + i as u32),
    };
    let mut new_edges: HashMap<(u32, u32), u64> = edges
        .into_iter()
        .filter(|((u, v), _)| !removed[*u as usize] && !removed[*v as usize])
        .map(|((u, v), ew)| (key(old_to_new[u as usize], old_to_new[v as usize]), ew))
        .collect();
    for &(u, v, ew) in &d.add_edges {
        match (to_new(u), to_new(v)) {
            (Some(a), Some(b)) if a != b => *new_edges.entry(key(a, b)).or_insert(0) += ew,
            _ => return other(format!("adds edge {u}-{v} to a missing or retired node")),
        }
    }
    Ok(Applied {
        graph: RefGraph {
            node_w,
            edges: new_edges
                .into_iter()
                .map(|((u, v), ew)| (u, v, ew))
                .collect(),
        },
        old_to_new,
    })
}

/// Node weight of the surviving base nodes that left their previous
/// part; inserted nodes move for free.
pub fn migrated_mass(applied: &Applied, prev: &[u32], next: &[u32]) -> u64 {
    applied
        .old_to_new
        .iter()
        .zip(prev)
        .filter(|&(&j, &p)| j != GONE && next[j as usize] != p)
        .map(|(&j, _)| applied.graph.node_w[j as usize])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> RefGraph {
        RefGraph {
            node_w: vec![10, 10, 10, 10],
            edges: vec![(0, 1, 3), (1, 2, 5), (2, 3, 3), (3, 0, 5)],
        }
    }

    #[test]
    fn measures_cut_resources_and_links() {
        let m = measure(&square(), &[0, 0, 1, 1], 2).unwrap();
        assert_eq!((m.cut, m.max_resource, m.max_bandwidth), (10, 20, 10));
        assert!(measure(&square(), &[0, 0, 2, 1], 2).is_err());
        assert!(measure(&square(), &[0, 0, 1], 2).is_err());
    }

    #[test]
    fn parses_partition_json_and_summary() {
        let (k, a) =
            parse_partition_json("{\n  \"k\": 3,\n  \"assign\": [\n 0,\n 2, 1\n]\n}").unwrap();
        assert_eq!((k, a), (3, vec![0, 2, 1]));
        let s = parse_cli_summary(
            "backend=gp nodes=4 edges=4 k=2 cut=10 max_resource=20 max_local_bandwidth=10 => feasible\n",
        )
        .unwrap();
        assert_eq!(
            (s.cut, s.max_resource, s.max_bandwidth, s.feasible),
            (10, 20, 10, true)
        );
    }

    #[test]
    fn applies_deltas_and_flags_drift_on_retired_nodes() {
        let d = GraphDelta {
            add_nodes: vec![7],
            remove_nodes: vec![1],
            add_edges: vec![(4, 2, 1)],
            node_drift: vec![(3, 12)],
            ..GraphDelta::default()
        };
        let a = apply_delta(&square(), &d).unwrap();
        assert_eq!(a.old_to_new, vec![0, GONE, 1, 2]);
        assert_eq!(a.graph.node_w, vec![10, 10, 12, 7]);
        assert_eq!(a.graph.total_edge_weight(), 3 + 5 + 1);
        assert_eq!(migrated_mass(&a, &[0, 0, 1, 1], &[0, 0, 1, 1]), 10);
        let bad = GraphDelta {
            remove_nodes: vec![1],
            node_drift: vec![(1, 4)],
            ..GraphDelta::default()
        };
        assert_eq!(
            apply_delta(&square(), &bad).err(),
            Some(DeltaFault::DriftOnRetired(1))
        );
    }
}
