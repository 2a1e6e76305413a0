//! The [`GraphStore`] abstraction: graph storage the reduction pipeline can run
//! against without knowing whether the graph is resident in memory.
//!
//! Everything built before the scale tier assumed a fully materialized
//! [`AttributedGraph`]. That is the right representation for the *residual* graph the
//! reduction pipeline hands to the branch-and-bound search — small, bit-matrix
//! friendly, random access — but it is the wrong representation for the raw
//! multi-million-vertex input, which may be orders of magnitude larger than the
//! residual and should never be materialized as a `Vec<(u, v)>` edge list.
//!
//! [`GraphStore`] is the minimal contract the *streaming first-pass reduction*
//! (`rfc_core::reduction::streaming`) needs:
//!
//! * per-vertex metadata in O(1): [`attribute`](GraphStore::attribute) and
//!   [`degree`](GraphStore::degree);
//! * a **full adjacency scan** in vertex order
//!   ([`scan_adjacency`](GraphStore::scan_adjacency)), which the peel's seed scan
//!   is built on;
//! * a **batch visit** of the lists of an ascending vertex set
//!   ([`visit_adjacency`](GraphStore::visit_adjacency)), which the peel's later
//!   waves and residual extraction use;
//! * **single-list lookups** ([`neighbors_into`](GraphStore::neighbors_into)) for
//!   callers that need a handful of lists.
//!
//! I/O model of the on-disk store: all three read the neighbor section with
//! positional reads, never through a shared file cursor. The scan and the batch
//! visit merge the lists of nearby requested vertices into one read of at most
//! 1 MiB, so their cost is a few large reads rather than one read per list; a
//! lookup reads just its own list.
//!
//! Two implementations exist: [`AttributedGraph`] (adapted below, zero behavior
//! change) and [`crate::disk::DiskCsr`] (the binary on-disk CSR behind the `.rfcg`
//! format). Search, enumeration and the dynamic layer keep operating on the
//! in-memory residual `AttributedGraph` the pipeline produces.

use std::io;

use crate::attr::{Attribute, AttributeCounts};
use crate::graph::{AttributedGraph, VertexId};

/// Storage-agnostic read access to an undirected attributed graph.
///
/// Vertex ids are dense (`0..n`), neighbor lists are sorted ascending and free of
/// self-loops and duplicates — the same canonical shape [`AttributedGraph`]
/// guarantees. Implementations may perform I/O; fallible methods surface
/// [`io::Error`] rather than panicking.
pub trait GraphStore {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges `m`.
    fn num_edges(&self) -> usize;

    /// The attribute of vertex `v`.
    fn attribute(&self, v: VertexId) -> Attribute;

    /// The degree of vertex `v`, in O(1) (no adjacency I/O).
    fn degree(&self, v: VertexId) -> usize;

    /// Appends the sorted neighbor list of `v` to `buf` (which is *not* cleared).
    ///
    /// This is the single-list lookup; on a disk-backed store it costs one read
    /// of `degree(v)` entries, so callers with many lists to read should use
    /// [`visit_adjacency`](GraphStore::visit_adjacency) or
    /// [`scan_adjacency`](GraphStore::scan_adjacency) instead.
    fn neighbors_into(&self, v: VertexId, buf: &mut Vec<VertexId>) -> io::Result<()>;

    /// Streams the adjacency of every vertex in ascending vertex order:
    /// `f(v, neighbors)` is called exactly once per vertex, including isolated
    /// vertices (with an empty slice). One pass over the neighbor section.
    fn scan_adjacency(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()>;

    /// Calls `f(v, neighbors)` once for each `v` of `ascending`, in that order.
    ///
    /// Ids should be ascending: a disk-backed store then reads the lists of nearby
    /// vertices together, in a few large reads. Other orders get the same lists,
    /// at more reads. The default reads each list with
    /// [`neighbors_into`](GraphStore::neighbors_into).
    fn visit_adjacency(
        &self,
        ascending: &[VertexId],
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        for &v in ascending {
            buf.clear();
            self.neighbors_into(v, &mut buf)?;
            f(v, &buf);
        }
        Ok(())
    }

    /// Estimated bytes of process-resident memory this store holds onto (indexes,
    /// caches, resident sections) — *not* the on-disk footprint. Used by the scale
    /// tier to assert that reducing a huge graph never materializes it.
    fn resident_bytes(&self) -> usize;

    /// Adjacency bytes this store has served from disk so far. Purely in-memory
    /// stores (and resident-mode disk stores) report 0, the default.
    fn disk_bytes_read(&self) -> u64 {
        0
    }

    /// Counts of vertices per attribute over the whole store. The default scans
    /// the attribute metadata, which every implementation holds resident.
    fn attribute_counts(&self) -> AttributeCounts {
        let mut counts = AttributeCounts::new();
        for v in 0..self.num_vertices() as VertexId {
            counts.add(self.attribute(v));
        }
        counts
    }
}

impl GraphStore for AttributedGraph {
    fn num_vertices(&self) -> usize {
        AttributedGraph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        AttributedGraph::num_edges(self)
    }

    fn attribute(&self, v: VertexId) -> Attribute {
        AttributedGraph::attribute(self, v)
    }

    fn degree(&self, v: VertexId) -> usize {
        AttributedGraph::degree(self, v)
    }

    fn neighbors_into(&self, v: VertexId, buf: &mut Vec<VertexId>) -> io::Result<()> {
        buf.extend_from_slice(self.neighbors(v));
        Ok(())
    }

    fn scan_adjacency(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        for v in 0..AttributedGraph::num_vertices(self) as VertexId {
            f(v, self.neighbors(v));
        }
        Ok(())
    }

    fn visit_adjacency(
        &self,
        ascending: &[VertexId],
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()> {
        for &v in ascending {
            f(v, self.neighbors(v));
        }
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.stats().csr_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn attributed_graph_store_agrees_with_direct_access() {
        let g = fixtures::fig1_graph();
        let store: &dyn GraphStore = &g;
        assert_eq!(store.num_vertices(), g.num_vertices());
        assert_eq!(store.num_edges(), g.num_edges());
        assert_eq!(store.attribute_counts(), g.attribute_counts());
        let mut buf = Vec::new();
        for v in g.vertices() {
            assert_eq!(store.degree(v), g.degree(v));
            assert_eq!(store.attribute(v), g.attribute(v));
            buf.clear();
            store.neighbors_into(v, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), g.neighbors(v));
        }
        assert!(store.resident_bytes() > 0);
    }

    #[test]
    fn scan_visits_every_vertex_in_order_including_isolated() {
        let mut b = crate::builder::GraphBuilder::new(5);
        b.add_edge(0, 2);
        let g = b.build().unwrap();
        let mut seen: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
        GraphStore::scan_adjacency(&g, &mut |v, nbrs| seen.push((v, nbrs.to_vec()))).unwrap();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0], (0, vec![2]));
        assert_eq!(seen[1], (1, vec![]));
        assert_eq!(seen[2], (2, vec![0]));
        assert_eq!(seen[3], (3, vec![]));
        assert_eq!(seen[4], (4, vec![]));
    }
}
