//! Compressed sparse row (CSR) view of a [`WeightedGraph`].
//!
//! The adjacency-list representation in [`WeightedGraph`] is convenient to
//! mutate; the hot inner loops of coarsening and refinement, however, scan
//! neighbourhoods millions of times, where the pointer-chasing of
//! `Vec<Vec<_>>` costs real time. `Csr` flattens the graph into the classic
//! `xadj`/`adjncy`/`adjwgt` triple used by METIS, plus node weights.

use crate::graph::WeightedGraph;

/// Immutable CSR snapshot of a graph, read through [`Csr::view`].
///
/// Neighbour lists are stored contiguously: the neighbours of node `i`
/// occupy `adjncy[xadj[i]..xadj[i+1]]` with matching `adjwgt` entries.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Offsets into `adjncy`, length `n + 1`.
    pub xadj: Vec<usize>,
    /// Concatenated neighbour ids (each undirected edge appears twice).
    pub adjncy: Vec<u32>,
    /// Edge weights parallel to `adjncy`.
    pub adjwgt: Vec<u64>,
    /// Node (resource) weights, length `n`.
    pub vwgt: Vec<u64>,
}

/// Borrowed CSR triple — the argument type of every hot loop that only
/// *reads* a CSR graph (boundary maintenance, refinement, metrics).
///
/// An owned [`Csr`] converts with [`Csr::view`] (or `Into`); the flat
/// level arena hands out `CsrView`s over its per-level slices with zero
/// copying, which is what lets the refinement engine run on arena levels
/// without materialising a graph per level.
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    /// Offsets into `adjncy`, length `n + 1`.
    pub xadj: &'a [usize],
    /// Concatenated neighbour ids (each undirected edge appears twice).
    pub adjncy: &'a [u32],
    /// Edge weights parallel to `adjncy`.
    pub adjwgt: &'a [u64],
    /// Node (resource) weights, length `n`.
    pub vwgt: &'a [u64],
}

impl<'a> CsrView<'a> {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbour ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &'a [u32] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Edge weights aligned with [`neighbors`](CsrView::neighbors).
    #[inline]
    pub fn neighbor_weights(&self, v: usize) -> &'a [u64] {
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Iterate `(neighbour, edge weight)` of `v`.
    #[inline]
    pub fn neighbor_iter(&self, v: usize) -> impl Iterator<Item = (usize, u64)> + 'a {
        self.neighbors(v)
            .iter()
            .zip(self.neighbor_weights(v))
            .map(|(&n, &w)| (n as usize, w))
    }

    /// Total node weight.
    pub fn total_node_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// The maximum node weight (0 for an empty graph).
    pub fn max_node_weight(&self) -> u64 {
        self.vwgt.iter().copied().max().unwrap_or(0)
    }

    /// Sum of `adjwgt` halved (each edge counted twice).
    pub fn total_edge_weight(&self) -> u64 {
        self.adjwgt.iter().sum::<u64>() / 2
    }
}

impl<'a> From<&'a Csr> for CsrView<'a> {
    fn from(c: &'a Csr) -> Self {
        c.view()
    }
}

impl Csr {
    /// Borrow this CSR as a [`CsrView`].
    #[inline]
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            xadj: &self.xadj,
            adjncy: &self.adjncy,
            adjwgt: &self.adjwgt,
            vwgt: &self.vwgt,
        }
    }

    /// Build a CSR snapshot from `g`.
    pub fn from_graph(g: &WeightedGraph) -> Self {
        let n = g.num_nodes();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(2 * g.num_edges());
        let mut adjwgt = Vec::with_capacity(2 * g.num_edges());
        xadj.push(0);
        for v in g.node_ids() {
            for &(u, e) in g.neighbors(v) {
                adjncy.push(u.0);
                adjwgt.push(g.edge_weight(e));
            }
            xadj.push(adjncy.len());
        }
        Csr {
            xadj,
            adjncy,
            adjwgt,
            vwgt: g.node_weights().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> WeightedGraph {
        // 0 -1- 1 -2- 2 -3- 3
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(i + 1)).collect();
        g.add_edge(n[0], n[1], 1).unwrap();
        g.add_edge(n[1], n[2], 2).unwrap();
        g.add_edge(n[2], n[3], 3).unwrap();
        g
    }

    #[test]
    fn csr_shape_matches_graph() {
        let g = path4();
        let c = Csr::from_graph(&g);
        let v = c.view();
        assert_eq!(v.num_nodes(), 4);
        assert_eq!(v.num_edges(), 3);
        assert_eq!(c.xadj, vec![0, 1, 3, 5, 6]);
        assert_eq!(v.degree(0), 1);
        assert_eq!(v.degree(1), 2);
        assert_eq!(v.total_node_weight(), 10);
        assert_eq!(v.total_edge_weight(), 6);
        assert_eq!(v.max_node_weight(), 4);
        assert_eq!(v.neighbors(1), &[0, 2]);
        assert_eq!(v.neighbor_weights(1), &[1, 2]);
    }

    #[test]
    fn neighbor_iter_pairs_weights() {
        let g = path4();
        let c = Csr::from_graph(&g);
        let nbrs: Vec<_> = CsrView::from(&c).neighbor_iter(1).collect();
        assert_eq!(nbrs, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn empty_graph_csr() {
        let g = WeightedGraph::new();
        let c = Csr::from_graph(&g);
        assert_eq!(c.view().num_nodes(), 0);
        assert_eq!(c.view().num_edges(), 0);
        assert_eq!(c.xadj, vec![0]);
        assert_eq!(c.view().max_node_weight(), 0);
    }
}
