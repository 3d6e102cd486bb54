//! METIS `.graph` format reader/writer.
//!
//! Format recap (METIS 5.x manual §4.1.1): first non-comment line is
//! `n m [fmt [ncon]]`; `fmt` is a 3-digit code `abc` where `a` = has
//! vertex sizes (unsupported here), `b` = has vertex weights, `c` = has
//! edge weights. Each following line lists, for node `i` (1-based), its
//! optional weights then pairs `neighbour [weight]`. Comment lines start
//! with `%` and may appear anywhere. After the header an empty line is a
//! node with no neighbours; blank lines after the `n`-th node line are
//! ignored. As in METIS, a self loop, a neighbour listed twice on one
//! line, and an entry whose mirror is missing or carries another weight
//! are rejected. We always *write* fmt `011` (vertex + edge weights)
//! since the partitioning problem is weighted on both.

use crate::error::GraphError;
use crate::graph::WeightedGraph;
use crate::ids::{EdgeId, NodeId};
use std::fmt::Write as _;

fn parse_err(line: usize, msg: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Parse a METIS-format graph from text in one pass. Each edge is
/// appended when its lower-numbered endpoint's line lists it (so edge ids
/// follow the lower endpoint, then the order on its line) and checked off
/// when the higher endpoint's line lists it back.
pub fn parse(text: &str) -> Result<WeightedGraph, GraphError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let (hline, header) = lines
        .by_ref()
        .find(|(_, l)| !l.is_empty() && !l.starts_with('%'))
        .ok_or_else(|| parse_err(1, "empty file"))?;
    let mut head = header.split_ascii_whitespace();
    let (Some(n), Some(m)) = (head.next(), head.next()) else {
        return Err(parse_err(hline, "header needs at least `n m`"));
    };
    let n: usize = n.parse().map_err(|_| parse_err(hline, "bad node count"))?;
    let m: usize = m.parse().map_err(|_| parse_err(hline, "bad edge count"))?;
    let fmt = head.next().unwrap_or("000").as_bytes();
    let has_vsize = fmt.len() == 3 && fmt[0] == b'1';
    let has_vwgt = fmt.len() >= 2 && fmt[fmt.len() - 2] == b'1';
    let has_ewgt = fmt.last() == Some(&b'1');
    if has_vsize {
        return Err(parse_err(hline, "vertex sizes (fmt=1xx) not supported"));
    }
    let ncon: usize = match head.next() {
        Some(t) => t.parse().map_err(|_| parse_err(hline, "bad ncon"))?,
        None => 1,
    };
    if ncon != 1 {
        return Err(parse_err(
            hline,
            "multiple vertex weights (ncon > 1) not supported",
        ));
    }
    // Allocation-bomb guard: a header cannot claim more nodes or edges
    // than the payload has bytes to describe them. Every node costs at
    // least its line's newline; every undirected edge is listed twice,
    // each listing at least one digit plus a separator (4 bytes total).
    // Checked before any count-proportional work so a hostile header
    // like `999999999999 999999999999` fails in O(1).
    let payload = text.len();
    if n > payload || m > payload / 4 {
        return Err(parse_err(
            hline,
            format!(
                "header claims {n} nodes and {m} edges but the payload is only {payload} bytes"
            ),
        ));
    }

    let mut g = WeightedGraph::new();
    g.reserve(n, m);
    for _ in 0..n {
        g.add_node(1);
    }
    // `listed[v] == u` once node u's line has named v; `mirrored[e]` once
    // the higher endpoint's line has named edge e back.
    let mut listed = vec![usize::MAX; n];
    let mut mirrored: Vec<bool> = Vec::with_capacity(m);
    let mut u = 0usize;
    for (lineno, line) in lines {
        if line.starts_with('%') {
            continue;
        }
        if u == n {
            if line.is_empty() {
                continue;
            }
            return Err(parse_err(lineno, format!("more than {n} node lines")));
        }
        let node = NodeId::from_index(u);
        let mut toks = line.split_ascii_whitespace();
        if has_vwgt {
            let w: u64 = toks
                .next()
                .ok_or_else(|| parse_err(lineno, "missing vertex weight"))?
                .parse()
                .map_err(|_| parse_err(lineno, "bad vertex weight"))?;
            if w == 0 {
                return Err(parse_err(lineno, "vertex weight must be positive"));
            }
            g.set_node_weight(node, w);
        }
        // The edges lower-numbered lines created to `node`, in ascending
        // neighbour order; this line's own edges are appended after them.
        let lower = g.degree(node);
        while let Some(tok) = toks.next() {
            let nbr: usize = tok
                .parse()
                .map_err(|_| parse_err(lineno, format!("bad neighbour `{tok}`")))?;
            if nbr == 0 || nbr > n {
                return Err(parse_err(
                    lineno,
                    format!("neighbour {nbr} out of range 1..={n}"),
                ));
            }
            let w: u64 = if has_ewgt {
                toks.next()
                    .ok_or_else(|| parse_err(lineno, "missing edge weight"))?
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad edge weight"))?
            } else {
                1
            };
            if w == 0 {
                return Err(parse_err(lineno, "edge weight must be positive"));
            }
            let v = nbr - 1;
            if v == u {
                return Err(parse_err(lineno, format!("self loop on node {nbr}")));
            }
            if listed[v] == u {
                return Err(parse_err(lineno, format!("duplicate neighbour {nbr}")));
            }
            listed[v] = u;
            if v > u {
                g.push_edge_unchecked(node, NodeId::from_index(v), w);
                mirrored.push(false);
                continue;
            }
            let created = &g.neighbors(node)[..lower];
            let Ok(i) = created.binary_search_by_key(&NodeId::from_index(v), |&(x, _)| x) else {
                let msg = format!("edge {nbr}-{} missing its mirror entry", u + 1);
                return Err(parse_err(lineno, msg));
            };
            let e = created[i].1;
            if g.edge_weight(e) != w {
                let msg = format!("asymmetric weight on edge {nbr}-{}", u + 1);
                return Err(parse_err(lineno, msg));
            }
            mirrored[e.index()] = true;
        }
        u += 1;
    }
    if u != n {
        return Err(parse_err(0, format!("expected {n} node lines, found {u}")));
    }
    if let Some(e) = mirrored.iter().position(|&done| !done) {
        let (a, b, _) = g.edge(EdgeId::from_index(e));
        return Err(parse_err(
            0,
            format!("edge {}-{} missing its mirror entry", a.0 + 1, b.0 + 1),
        ));
    }
    if g.num_edges() != m {
        return Err(parse_err(
            0,
            format!("header declared {m} edges, found {}", g.num_edges()),
        ));
    }
    Ok(g)
}

/// Serialise a graph in METIS format with fmt `011` (vertex and edge
/// weights).
pub fn write(g: &WeightedGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "% written by ppn-graph\n{} {} 011",
        g.num_nodes(),
        g.num_edges()
    );
    for v in g.node_ids() {
        let _ = write!(out, "{}", g.node_weight(v));
        let mut nbrs: Vec<(NodeId, u64)> = g
            .neighbors(v)
            .iter()
            .map(|&(u, e)| (u, g.edge_weight(e)))
            .collect();
        nbrs.sort_by_key(|&(u, _)| u);
        for (u, w) in nbrs {
            let _ = write!(out, " {} {}", u.0 + 1, w);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(20);
        let c = g.add_node(30);
        g.add_edge(a, b, 5).unwrap();
        g.add_edge(b, c, 7).unwrap();
        g
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let text = write(&g);
        let g2 = parse(&text).unwrap();
        g2.validate().unwrap();
        assert_eq!(g2.num_nodes(), 3);
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.node_weight(NodeId(1)), 20);
        let e = g2.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g2.edge_weight(e), 7);
    }

    #[test]
    fn parses_unweighted_format() {
        let text = "3 2\n2\n1 3\n2\n";
        let g = parse(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.node_weight(NodeId(0)), 1);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "% a comment\n\n3 1 011\n% another\n4 2 9\n5 1 9\n6\n";
        let g = parse(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.node_weight(NodeId(2)), 6);
    }

    #[test]
    fn rejects_asymmetric_edges() {
        let text = "2 1 001\n2 5\n1 6\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("asymmetric"));
    }

    #[test]
    fn rejects_missing_mirror() {
        let text = "3 1 000\n2\n\n\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn empty_lines_are_isolated_nodes() {
        for text in ["3 1\n2\n1\n\n", "3 1\n3\n\n1\n"] {
            let g = parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!((g.num_nodes(), g.num_edges()), (3, 1), "{text:?}");
        }
    }

    #[test]
    fn rejects_self_loop() {
        let err = parse("2 1\n1 2\n1\n").unwrap_err();
        assert!(err.to_string().contains("self loop"), "{err}");
    }

    #[test]
    fn rejects_entry_listed_only_by_the_higher_node() {
        let err = parse("3 1\n2\n1\n1\n").unwrap_err();
        assert!(err.to_string().contains("mirror"), "{err}");
    }

    #[test]
    fn rejects_duplicate_neighbour() {
        // listed twice by the lower node, then by the higher node
        for text in ["2 1\n2 2\n1\n", "2 1\n2\n1 1\n"] {
            let err = parse(text).unwrap_err();
            assert!(err.to_string().contains("duplicate"), "{text:?}: {err}");
        }
    }

    #[test]
    fn rejects_out_of_range_neighbour() {
        let text = "2 1 000\n5\n1\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let text = "2 2 000\n2\n1\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("declared 2 edges"));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse("").is_err());
        assert!(parse("% only comments\n").is_err());
    }
}
