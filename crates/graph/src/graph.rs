//! The immutable CSR attributed graph.
//!
//! [`AttributedGraph`] stores an undirected, unweighted, simple graph in compressed
//! sparse row form together with one binary [`Attribute`] per vertex. Neighbor lists are
//! sorted, which makes adjacency tests (`has_edge`) `O(log d)` and common-neighbor
//! enumeration a linear merge.
//!
//! Every undirected edge additionally carries a stable [`EdgeId`] in `0..m`, exposed in
//! the adjacency lists, so that peeling algorithms (truss-style edge removal in
//! `rfc-core::reduction`) can maintain per-edge state in flat arrays.

use crate::attr::{Attribute, AttributeCounts};

/// Vertex identifier: a dense index in `0..n`.
pub type VertexId = u32;

/// Edge identifier: a dense index in `0..m` over undirected edges.
pub type EdgeId = u32;

/// An immutable undirected attributed graph in CSR form.
///
/// Construct through [`crate::GraphBuilder`]; the builder removes self-loops and
/// duplicate edges and validates endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributedGraph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists, length `2m`.
    neighbors: Vec<VertexId>,
    /// Edge id parallel to `neighbors`, length `2m`.
    edge_ids: Vec<EdgeId>,
    /// Vertex attributes, length `n`.
    attributes: Vec<Attribute>,
    /// Canonical edge list `(u, v)` with `u < v`, length `m`, sorted lexicographically.
    edges: Vec<(VertexId, VertexId)>,
}

impl AttributedGraph {
    /// Internal constructor used by [`crate::GraphBuilder`] and [`crate::subgraph`].
    ///
    /// `edges` must be canonical (`u < v`), sorted, and free of duplicates/self-loops;
    /// `attributes.len()` is the vertex count.
    ///
    /// Filling the CSR in edge-list order leaves every adjacency slice sorted with no
    /// sort pass: vertex `x` first receives its smaller neighbors `u` from the edges
    /// `(u, x)`, in increasing `u`, and then its larger neighbors `v` from the edges
    /// `(x, v)`, which all follow in the sorted list, in increasing `v`.
    pub(crate) fn from_parts(attributes: Vec<Attribute>, edges: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(
            edges.iter().all(|&(u, v)| u < v) && edges.windows(2).all(|w| w[0] < w[1]),
            "edge list must be canonical, sorted and duplicate-free"
        );
        let n = attributes.len();
        let mut degrees = vec![0usize; n];
        for &(u, v) in &edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut neighbors = vec![0 as VertexId; acc];
        let mut edge_ids = vec![0 as EdgeId; acc];
        let mut cursor = offsets[..n].to_vec();
        for (eid, &(u, v)) in edges.iter().enumerate() {
            let eid = eid as EdgeId;
            neighbors[cursor[u as usize]] = v;
            edge_ids[cursor[u as usize]] = eid;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            edge_ids[cursor[v as usize]] = eid;
            cursor[v as usize] += 1;
        }
        Self {
            offsets,
            neighbors,
            edge_ids,
            attributes,
            edges,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.attributes.len()
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// The attribute of vertex `v`.
    #[inline]
    pub fn attribute(&self, v: VertexId) -> Attribute {
        self.attributes[v as usize]
    }

    /// The full attribute slice, indexed by vertex id.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Counts of vertices per attribute over the whole graph.
    pub fn attribute_counts(&self) -> AttributeCounts {
        AttributeCounts::from_iter(self.attributes.iter().copied())
    }

    /// Counts of attributes over an arbitrary vertex set.
    pub fn attribute_counts_of(&self, vertices: &[VertexId]) -> AttributeCounts {
        AttributeCounts::from_iter(vertices.iter().map(|&v| self.attribute(v)))
    }

    /// The degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The maximum degree `d_max` over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge ids parallel to [`Self::neighbors`]: `neighbor_edge_ids(v)[i]` is the id of
    /// the undirected edge `(v, neighbors(v)[i])`.
    #[inline]
    pub fn neighbor_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        &self.edge_ids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterator over `(neighbor, edge_id)` pairs of `v`, in neighbor order.
    #[inline]
    pub fn neighbors_with_edges(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_edge_ids(v).iter().copied())
    }

    /// Whether the edge `(u, v)` exists. `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Search in the smaller adjacency list.
        let (x, y) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(x).binary_search(&y).is_ok()
    }

    /// The edge id of `(u, v)`, if the edge exists. `O(log deg)`.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (x, y) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(x)
            .binary_search(&y)
            .ok()
            .map(|i| self.neighbor_edge_ids(x)[i])
    }

    /// The endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e as usize]
    }

    /// The canonical edge list (each edge once, `u < v`, lexicographically sorted).
    #[inline]
    pub fn edge_list(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Common neighbors of `u` and `v`, by sorted-list merge. `O(deg(u) + deg(v))`.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let (nu, nv) = (self.neighbors(u), self.neighbors(v));
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(nu[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Whether the given vertex set induces a clique (every pair adjacent).
    pub fn is_clique(&self, vertices: &[VertexId]) -> bool {
        for (i, &u) in vertices.iter().enumerate() {
            for &v in &vertices[i + 1..] {
                if !self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of vertices with degree at least one.
    pub fn num_non_isolated_vertices(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .filter(|&v| self.degree(v) > 0)
            .count()
    }

    /// Summary statistics of the graph (Table I style), including the
    /// memory-footprint estimates the scale tier reports: what this CSR costs
    /// resident, and what a dense [`crate::bitset::BitMatrix`] adjacency over the
    /// same vertex count would cost if the search layer built one.
    pub fn stats(&self) -> GraphStats {
        let n = self.num_vertices();
        let csr_bytes = (n + 1) * std::mem::size_of::<usize>()          // offsets
            + self.neighbors.len() * std::mem::size_of::<VertexId>()    // neighbors
            + self.edge_ids.len() * std::mem::size_of::<EdgeId>()       // edge ids
            + n * std::mem::size_of::<Attribute>()                      // attributes
            + self.edges.len() * std::mem::size_of::<(VertexId, VertexId)>(); // edge list
        let words_per_row = n.div_ceil(64);
        let bitmatrix_bytes = n.saturating_mul(words_per_row).saturating_mul(8);
        GraphStats {
            num_vertices: n,
            num_edges: self.num_edges(),
            max_degree: self.max_degree(),
            attribute_counts: self.attribute_counts(),
            csr_bytes,
            bitmatrix_bytes,
        }
    }
}

/// Summary statistics of an attributed graph, matching the columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of vertices `n = |V|`.
    pub num_vertices: usize,
    /// Number of undirected edges `m = |E|`.
    pub num_edges: usize,
    /// Maximum degree `d_max`.
    pub max_degree: usize,
    /// Per-attribute vertex counts.
    pub attribute_counts: AttributeCounts,
    /// Estimated resident bytes of the CSR representation itself (offsets,
    /// neighbor and edge-id arrays, attributes, canonical edge list).
    pub csr_bytes: usize,
    /// Estimated bytes of a dense bit-matrix adjacency over `n` vertices
    /// (`n * ⌈n/64⌉` words) — what the branch-and-bound layer would allocate if
    /// handed this graph whole instead of the reduced residual. The scale tier
    /// prints both so users can see why a graph does or doesn't fit.
    pub bitmatrix_bytes: usize,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} dmax={} attrs={}",
            self.num_vertices, self.num_edges, self.max_degree, self.attribute_counts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The 15-vertex example graph of Fig. 1 in the paper (1-based ids in the figure,
    /// 0-based here: paper vertex `v_i` is id `i - 1`).
    fn fig1_graph() -> AttributedGraph {
        crate::fixtures::fig1_graph()
    }

    fn small_graph() -> AttributedGraph {
        // Triangle 0-1-2 plus pendant 3 attached to 2.
        let mut b = GraphBuilder::new(4);
        b.set_attribute(0, Attribute::A);
        b.set_attribute(1, Attribute::B);
        b.set_attribute(2, Attribute::A);
        b.set_attribute(3, Attribute::B);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn basic_counts_and_degrees() {
        let g = small_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.attribute_counts(), AttributeCounts::from_counts(2, 2));
    }

    #[test]
    fn neighbor_lists_are_sorted_and_consistent() {
        let g = small_graph();
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            for (i, &u) in nbrs.iter().enumerate() {
                // Symmetry.
                assert!(g.neighbors(u).contains(&v));
                // Edge id agrees with endpoints.
                let eid = g.neighbor_edge_ids(v)[i];
                let (a, b) = g.edge_endpoints(eid);
                assert_eq!((a.min(b), a.max(b)), (v.min(u), v.max(u)));
            }
        }
    }

    #[test]
    fn has_edge_and_edge_id() {
        let g = small_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.edge_id(0, 3), None);
        let eid = g.edge_id(2, 3).unwrap();
        assert_eq!(g.edge_endpoints(eid), (2, 3));
        assert_eq!(g.edge_id(3, 2), Some(eid));
    }

    #[test]
    fn common_neighbors_merge() {
        let g = small_graph();
        assert_eq!(g.common_neighbors(0, 1), vec![2]);
        assert_eq!(g.common_neighbors(0, 3), vec![2]);
        assert_eq!(g.common_neighbors(1, 3), vec![2]);
        assert_eq!(g.common_neighbors(2, 3), Vec::<VertexId>::new());
    }

    #[test]
    fn clique_check() {
        let g = small_graph();
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(g.is_clique(&[2, 3]));
        assert!(g.is_clique(&[1]));
        assert!(g.is_clique(&[]));
        assert!(!g.is_clique(&[0, 1, 2, 3]));
    }

    #[test]
    fn fig1_graph_has_expected_shape() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 15);
        // v7..v15 (ids 6..14) contain an 8-vertex clique minus one vertex; check a few
        // adjacencies from the figure.
        assert!(g.has_edge(6, 7)); // v7 - v8
        assert!(g.has_edge(9, 14)); // v10 - v15
        assert!(!g.has_edge(0, 14)); // v1 - v15 not adjacent
    }

    #[test]
    fn stats_display_is_stable() {
        let g = small_graph();
        let s = g.stats();
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(format!("{s}"), "n=4 m=4 dmax=3 attrs=(a: 2, b: 2)");
    }

    #[test]
    fn non_isolated_vertex_count() {
        let mut b = GraphBuilder::new(5);
        for v in 0..5 {
            b.set_attribute(v, Attribute::A);
        }
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_non_isolated_vertices(), 2);
        assert_eq!(g.num_vertices(), 5);
    }
}
