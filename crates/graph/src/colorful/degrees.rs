//! Colorful degrees (Definition 2) and the flat color-count tables behind every
//! colorful peeling: [`ColorCountSlab`] (one slab of `(color, [count_a, count_b])`
//! rows) and the per-vertex [`NeighborColorCounts`] shared by the colorful-core and
//! enhanced-colorful-core peelings.

use crate::attr::Attribute;
use crate::coloring::Coloring;
use crate::graph::{AttributedGraph, VertexId};

use super::enhanced::ColorGroups;

/// Per-vertex colorful degrees: `D_a(v)` and `D_b(v)` — the number of distinct colors
/// among `v`'s neighbors with attribute `a` (resp. `b`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorfulDegrees {
    /// `per_attr[v] = [D_a(v), D_b(v)]`.
    pub per_attr: Vec<[u32; 2]>,
}

impl ColorfulDegrees {
    /// `D_attr(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId, attr: Attribute) -> u32 {
        self.per_attr[v as usize][attr.index()]
    }

    /// `D_min(v) = min(D_a(v), D_b(v))` (Definition 10 uses this quantity).
    #[inline]
    pub fn min_degree(&self, v: VertexId) -> u32 {
        let [a, b] = self.per_attr[v as usize];
        a.min(b)
    }

    /// `D_a(v) + D_b(v)`.
    #[inline]
    pub fn sum_degree(&self, v: VertexId) -> u32 {
        let [a, b] = self.per_attr[v as usize];
        a + b
    }
}

/// Rows of `(color, [count_a, count_b])` entries in one flat slab.
///
/// Row `r` is `offsets[r]..offsets[r + 1]` of the parallel `colors` and `counts`
/// arrays, sorted by color, so a lookup is a binary search over a dense `u32` slice.
/// Rows never shrink: a color whose counts drop to zero keeps its entry, which lets a
/// builder size the slab exactly up front.
#[derive(Debug, Clone)]
pub struct ColorCountSlab {
    offsets: Vec<usize>,
    colors: Vec<u32>,
    counts: Vec<[u32; 2]>,
}

impl ColorCountSlab {
    /// Wraps prebuilt rows: `offsets` has one more element than there are rows, starts
    /// at 0 and ends at `colors.len() == counts.len()`; colors increase within a row.
    pub fn from_parts(offsets: Vec<usize>, colors: Vec<u32>, counts: Vec<[u32; 2]>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&colors.len()));
        debug_assert_eq!(colors.len(), counts.len());
        debug_assert!(offsets
            .windows(2)
            .all(|w| colors[w[0]..w[1]].windows(2).all(|c| c[0] < c[1])));
        Self {
            offsets,
            colors,
            counts,
        }
    }

    #[inline]
    fn range(&self, row: usize) -> std::ops::Range<usize> {
        self.offsets[row]..self.offsets[row + 1]
    }

    /// The per-color counts of `row`, in color order (zeroed entries included).
    #[inline]
    pub fn row_counts(&self, row: usize) -> &[[u32; 2]] {
        &self.counts[self.range(row)]
    }

    /// `(color, [count_a, count_b])` entries of `row` whose counts are not both zero.
    pub fn entries(&self, row: usize) -> impl Iterator<Item = (u32, [u32; 2])> + '_ {
        let range = self.range(row);
        self.colors[range.clone()]
            .iter()
            .copied()
            .zip(self.counts[range].iter().copied())
            .filter(|&(_, c)| c != [0, 0])
    }

    /// Slab index of `color` in `row`, if the row has an entry for it.
    #[inline]
    fn find(&self, row: usize, color: u32) -> Option<usize> {
        let range = self.range(row);
        self.colors[range.clone()]
            .binary_search(&color)
            .ok()
            .map(|i| range.start + i)
    }

    /// The counts of `color` in `row` (`[0, 0]` if the row never had it).
    pub fn get(&self, row: usize, color: u32) -> [u32; 2] {
        self.find(row, color).map_or([0, 0], |i| self.counts[i])
    }

    /// Takes one `attr` occurrence of `color` out of `row` and returns the color's
    /// remaining `[count_a, count_b]`.
    ///
    /// # Panics
    /// If the row never counted `color`, or its `attr` count is already zero.
    pub fn decrement(&mut self, row: usize, color: u32, attr: Attribute) -> [u32; 2] {
        let i = self
            .find(row, color)
            .expect("removing a color that was never counted");
        let entry = &mut self.counts[i];
        let slot = &mut entry[attr.index()];
        assert!(*slot > 0, "color count underflow");
        *slot -= 1;
        *entry
    }
}

/// Scratch that tallies one slab row at a time: counts indexed by color (all zero
/// between rows) plus the colors touched since the last reset, so clearing costs the
/// row's size rather than the color count.
#[derive(Debug, Clone)]
struct ColorTally {
    counts: Vec<[u32; 2]>,
    touched: Vec<u32>,
}

impl ColorTally {
    /// A tally over colors `0..num_colors`.
    fn new(num_colors: usize) -> Self {
        Self {
            counts: vec![[0, 0]; num_colors],
            touched: Vec::new(),
        }
    }

    /// Counts one vertex of `color` and `attr`.
    #[inline]
    fn add(&mut self, color: u32, attr: Attribute) {
        let entry = &mut self.counts[color as usize];
        if *entry == [0, 0] {
            self.touched.push(color);
        }
        entry[attr.index()] += 1;
    }

    /// Number of distinct colors tallied: the row's slab length.
    #[inline]
    fn distinct(&self) -> usize {
        self.touched.len()
    }

    /// Forgets the tallied row.
    fn reset(&mut self) {
        for c in self.touched.drain(..) {
            self.counts[c as usize] = [0, 0];
        }
    }

    /// Writes the tallied row, sorted by color, into `colors` and `counts` (each
    /// exactly [`distinct`](Self::distinct) long) and resets.
    fn drain_sorted_into(&mut self, colors: &mut [u32], counts: &mut [[u32; 2]]) {
        debug_assert_eq!(colors.len(), self.touched.len());
        debug_assert_eq!(counts.len(), self.touched.len());
        self.touched.sort_unstable();
        for (i, c) in self.touched.drain(..).enumerate() {
            colors[i] = c;
            counts[i] = std::mem::take(&mut self.counts[c as usize]);
        }
    }
}

/// Mutable per-vertex counts of neighbors by `(color, attribute)`.
///
/// Row `v` holds, for each color among `v`'s neighbors, `[#a-neighbors of v with that
/// color, #b-neighbors …]`. The peeling algorithms decrement these counts as
/// vertices/edges are removed and derive colorful degrees (a color contributes to
/// `D_attr(v)` while its count for `attr` is non-zero).
#[derive(Debug, Clone)]
pub struct NeighborColorCounts {
    slab: ColorCountSlab,
}

impl NeighborColorCounts {
    /// Builds the counts for every vertex of `g` under `coloring`.
    pub fn new(g: &AttributedGraph, coloring: &Coloring) -> Self {
        Self::build(g, coloring, |_| true)
    }

    /// Builds the counts restricted to vertices in `mask` (both the center vertex and
    /// its neighbors must be in the mask).
    pub fn new_masked(g: &AttributedGraph, coloring: &Coloring, mask: &[bool]) -> Self {
        Self::build(g, coloring, |v| mask[v as usize])
    }

    /// Two passes over the adjacency: the first counts every row's distinct colors to
    /// size the slab exactly, the second fills it.
    fn build(g: &AttributedGraph, coloring: &Coloring, keep: impl Fn(VertexId) -> bool) -> Self {
        let mut tally = ColorTally::new(coloring.num_colors);
        let tally_row = |tally: &mut ColorTally, v: VertexId| {
            if keep(v) {
                for &u in g.neighbors(v).iter().filter(|&&u| keep(u)) {
                    tally.add(coloring.color(u), g.attribute(u));
                }
            }
        };
        let mut offsets = Vec::with_capacity(g.num_vertices() + 1);
        offsets.push(0);
        for v in g.vertices() {
            tally_row(&mut tally, v);
            offsets.push(offsets[v as usize] + tally.distinct());
            tally.reset();
        }
        let total = offsets[g.num_vertices()];
        let mut colors = vec![0u32; total];
        let mut counts = vec![[0u32; 2]; total];
        for v in g.vertices() {
            let range = offsets[v as usize]..offsets[v as usize + 1];
            tally_row(&mut tally, v);
            tally.drain_sorted_into(&mut colors[range.clone()], &mut counts[range]);
        }
        Self {
            slab: ColorCountSlab::from_parts(offsets, colors, counts),
        }
    }

    /// The colorful degrees implied by the current counts.
    pub fn colorful_degrees(&self) -> ColorfulDegrees {
        let n = self.slab.offsets.len() - 1;
        let per_attr = (0..n)
            .map(|v| {
                let mut d = [0u32; 2];
                for &[ca, cb] in self.slab.row_counts(v) {
                    d[0] += u32::from(ca > 0);
                    d[1] += u32::from(cb > 0);
                }
                d
            })
            .collect();
        ColorfulDegrees { per_attr }
    }

    /// The exclusive/mixed groups of `v`'s neighbor colors.
    pub fn groups(&self, v: VertexId) -> ColorGroups {
        ColorGroups::from_counts(self.slab.row_counts(v as usize))
    }

    /// Removes one neighbor `w` (with the given color and attribute) from `v`'s view
    /// and returns the color's remaining `[count_a, count_b]` at `v`: the colorful
    /// degree `D_attr(v)` dropped by one iff the `attr` count is now zero.
    ///
    /// # Panics
    /// If `v` never counted a neighbor of that color and attribute.
    pub fn remove_neighbor(&mut self, v: VertexId, color: u32, attr: Attribute) -> [u32; 2] {
        self.slab.decrement(v as usize, color, attr)
    }

    /// Current count for `(v, color, attr)`.
    pub fn count(&self, v: VertexId, color: u32, attr: Attribute) -> u32 {
        self.slab.get(v as usize, color)[attr.index()]
    }

    /// Iterates over `(color, [count_a, count_b])` entries of vertex `v` with a
    /// non-zero count, in color order.
    pub fn colors_of(&self, v: VertexId) -> impl Iterator<Item = (u32, [u32; 2])> + '_ {
        self.slab.entries(v as usize)
    }
}

/// Computes the colorful degrees of every vertex (Definition 2).
pub fn colorful_degrees(g: &AttributedGraph, coloring: &Coloring) -> ColorfulDegrees {
    NeighborColorCounts::new(g, coloring).colorful_degrees()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::greedy_coloring;
    use crate::fixtures;

    #[test]
    fn colorful_degrees_on_balanced_clique() {
        // In K6 with alternating attributes every vertex has 3 neighbors of one
        // attribute and 2 of the other, all distinctly colored.
        let g = fixtures::balanced_clique(6);
        let c = greedy_coloring(&g);
        let d = colorful_degrees(&g, &c);
        for v in g.vertices() {
            let mine = g.attribute(v);
            // 2 neighbors share my attribute, 3 have the other.
            assert_eq!(d.degree(v, mine), 2);
            assert_eq!(d.degree(v, mine.other()), 3);
            assert_eq!(d.min_degree(v), 2);
            assert_eq!(d.sum_degree(v), 5);
        }
    }

    #[test]
    fn colorful_degree_counts_distinct_colors_not_neighbors() {
        // Star: center 0 with 4 leaves of attribute B. Leaves are pairwise
        // non-adjacent, so greedy coloring gives them all the same color; the center's
        // colorful b-degree is 1 even though it has 4 b-neighbors.
        let mut b = crate::builder::GraphBuilder::new(5);
        b.set_attribute(0, Attribute::A);
        for v in 1..5 {
            b.set_attribute(v, Attribute::B);
            b.add_edge(0, v);
        }
        let g = b.build().unwrap();
        let c = greedy_coloring(&g);
        let d = colorful_degrees(&g, &c);
        assert_eq!(d.degree(0, Attribute::B), 1);
        assert_eq!(d.degree(0, Attribute::A), 0);
        assert_eq!(d.min_degree(0), 0);
        for v in 1..5 {
            assert_eq!(d.degree(v, Attribute::A), 1);
            assert_eq!(d.degree(v, Attribute::B), 0);
        }
    }

    #[test]
    fn fig1_graph_is_a_colorful_2_core_candidate() {
        // Example 2 states Dmin(u, G) >= 2 for every vertex of the Fig. 1 graph. Our
        // fixture is only adapted from the figure, so check the planted-clique side
        // which must certainly satisfy it.
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        let d = colorful_degrees(&g, &c);
        for v in [6u32, 7, 9, 10, 11, 12, 13, 14] {
            assert!(d.min_degree(v) >= 2, "vertex {v} has Dmin < 2");
        }
    }

    #[test]
    fn remove_neighbor_updates_counts() {
        let g = fixtures::balanced_clique(4);
        let coloring = greedy_coloring(&g);
        let mut counts = NeighborColorCounts::new(&g, &coloring);
        let v = 0u32;
        let w = 1u32;
        let color_w = coloring.color(w);
        let attr_w = g.attribute(w);
        assert_eq!(counts.count(v, color_w, attr_w), 1);
        let remaining = counts.remove_neighbor(v, color_w, attr_w);
        assert_eq!(remaining, [0, 0]);
        assert_eq!(counts.count(v, color_w, attr_w), 0);
        let d = counts.colorful_degrees();
        // v lost one distinct color of w's attribute.
        let full = colorful_degrees(&g, &coloring);
        assert_eq!(d.degree(v, attr_w) + 1, full.degree(v, attr_w));
    }

    #[test]
    fn masked_counts_ignore_outside_vertices() {
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let mut mask = vec![false; g.num_vertices()];
        for v in [6usize, 7, 9, 10] {
            mask[v] = true;
        }
        let counts = NeighborColorCounts::new_masked(&g, &coloring, &mask);
        let d = counts.colorful_degrees();
        // Within {v7, v8, v10, v11}: v11 (id 10, attribute a) sees 3 b... actually
        // v7, v8, v10 are b and v11 is a; so id 10 sees 3 distinct b-colors, 0 a.
        assert_eq!(d.degree(10, Attribute::B), 3);
        assert_eq!(d.degree(10, Attribute::A), 0);
        // Vertices outside the mask have empty counts.
        assert_eq!(d.degree(0, Attribute::A), 0);
        assert_eq!(d.degree(0, Attribute::B), 0);
    }

    #[test]
    #[should_panic(expected = "never counted")]
    fn remove_unknown_neighbor_panics() {
        let g = fixtures::path_graph(3);
        let coloring = greedy_coloring(&g);
        let mut counts = NeighborColorCounts::new(&g, &coloring);
        // Vertex 0 has no neighbor with a bogus color id 99.
        counts.remove_neighbor(0, 99, Attribute::A);
    }
}
