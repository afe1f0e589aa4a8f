//! Join graphs over relation indices: connectivity, subgraph enumeration and
//! the chain/star/branch shape taxonomy of the paper's Table 2.

use serde::{Deserialize, Serialize};

/// Geometry of a join graph, per the paper's workload description (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphShape {
    /// Every vertex has degree ≤ 2 and the graph is a path.
    Chain,
    /// One hub joined to all other relations.
    Star,
    /// A tree that is neither a chain nor a star.
    Branch,
    /// Contains a cycle.
    Cyclic,
}

/// Undirected join graph over `n` relations, represented with adjacency
/// bitmasks (the optimizer's DP requires `n <= 32`; the paper's queries use
/// 4–8 relations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinGraph {
    n: usize,
    adj: Vec<u32>,
    edges: Vec<(usize, usize)>,
}

impl JoinGraph {
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Self {
        assert!(n <= 32, "join graphs limited to 32 relations");
        let mut adj = vec![0u32; n];
        for &(u, v) in &edges {
            assert!(u < n && v < n && u != v, "bad edge ({u},{v})");
            adj[u] |= 1 << v;
            adj[v] |= 1 << u;
        }
        JoinGraph { n, adj, edges }
    }

    pub fn num_relations(&self) -> usize {
        self.n
    }

    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Bitmask of neighbours of vertex `v`.
    pub fn neighbours(&self, v: usize) -> u32 {
        self.adj[v]
    }

    /// Bitmask of neighbours of any vertex in `set`.
    pub fn neighbours_of_set(&self, set: u32) -> u32 {
        let mut out = 0u32;
        let mut s = set;
        while s != 0 {
            let v = s.trailing_zeros() as usize;
            out |= self.adj[v];
            s &= s - 1;
        }
        out & !set
    }

    /// Whether the vertex subset `set` induces a connected subgraph.
    pub fn is_subset_connected(&self, set: u32) -> bool {
        if set == 0 {
            return false;
        }
        let start = set.trailing_zeros();
        let mut seen = 1u32 << start;
        loop {
            let grow = self.neighbours_of_set(seen) & set;
            if grow == 0 {
                break;
            }
            seen |= grow;
        }
        seen == set
    }

    /// Whether the full graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        self.is_subset_connected(((1u64 << self.n) - 1) as u32)
    }

    /// Classify the graph shape (assumes connectivity).
    pub fn shape(&self) -> GraphShape {
        if self.edges.len() >= self.n {
            return GraphShape::Cyclic;
        }
        let degrees: Vec<usize> = (0..self.n)
            .map(|v| self.adj[v].count_ones() as usize)
            .collect();
        let max_deg = degrees.iter().copied().max().unwrap_or(0);
        if max_deg <= 2 {
            GraphShape::Chain
        } else if max_deg == self.n - 1 && self.n > 2 {
            GraphShape::Star
        } else {
            GraphShape::Branch
        }
    }

    /// Build a chain 0–1–2–…–(n−1).
    pub fn chain(n: usize) -> Self {
        JoinGraph::new(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect())
    }

    /// Build a star with hub 0.
    pub fn star(n: usize) -> Self {
        JoinGraph::new(n, (1..n).map(|i| (0, i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let g = JoinGraph::chain(6);
        assert!(g.is_connected());
        assert_eq!(g.shape(), GraphShape::Chain);
    }

    #[test]
    fn star_shape() {
        let g = JoinGraph::star(5);
        assert!(g.is_connected());
        assert_eq!(g.shape(), GraphShape::Star);
    }

    #[test]
    fn branch_shape() {
        // 0-1-2 with 1-3, 3-4: vertex 1 and 3 have degree >2 / tree, not star.
        let g = JoinGraph::new(5, vec![(0, 1), (1, 2), (1, 3), (3, 4)]);
        assert_eq!(g.shape(), GraphShape::Branch);
    }

    #[test]
    fn cyclic_shape() {
        let g = JoinGraph::new(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.shape(), GraphShape::Cyclic);
    }

    #[test]
    fn subset_connectivity() {
        let g = JoinGraph::chain(4); // 0-1-2-3
        assert!(g.is_subset_connected(0b0011));
        assert!(g.is_subset_connected(0b0111));
        assert!(!g.is_subset_connected(0b0101)); // {0,2} not adjacent
        assert!(!g.is_subset_connected(0));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = JoinGraph::new(4, vec![(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn two_relation_graph_is_chain() {
        assert_eq!(JoinGraph::chain(2).shape(), GraphShape::Chain);
    }
}
