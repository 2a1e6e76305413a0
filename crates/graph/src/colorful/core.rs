//! Colorful k-cores, colorful core numbers, colorful degeneracy and the colorful
//! h-index (Definitions 3, 8, 9 and 10).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::coloring::Coloring;
use crate::cores::h_index_of;
use crate::graph::{AttributedGraph, VertexId};

use super::degrees::{colorful_degrees, NeighborColorCounts};

/// Result of the colorful core decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorfulCoreDecomposition {
    /// Colorful core number of each vertex (Definition 8).
    pub core_numbers: Vec<u32>,
    /// Colorful degeneracy: the maximum colorful core number (Definition 9).
    pub colorful_degeneracy: u32,
    /// Peeling order (vertices removed earliest first). This is the colorful-core based
    /// ordering `CalColorOD` used by the branch-and-bound framework: vertices that
    /// survive longest (largest colorful core number) appear last.
    pub order: Vec<VertexId>,
}

/// Membership mask of the colorful k-core (Definition 3): the maximal subgraph `H` in
/// which every vertex has `min(D_a(v, H), D_b(v, H)) ≥ k`.
pub fn colorful_k_core_mask(g: &AttributedGraph, coloring: &Coloring, k: usize) -> Vec<bool> {
    let n = g.num_vertices();
    let mut alive = vec![true; n];
    if n == 0 {
        return alive;
    }
    let mut counts = NeighborColorCounts::new(g, coloring);
    let mut degs = counts.colorful_degrees();
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut queued = vec![false; n];
    for v in g.vertices() {
        if (degs.min_degree(v) as usize) < k {
            queue.push_back(v);
            queued[v as usize] = true;
        }
    }
    while let Some(v) = queue.pop_front() {
        if !alive[v as usize] {
            continue;
        }
        alive[v as usize] = false;
        let color_v = coloring.color(v);
        let attr_v = g.attribute(v);
        for &u in g.neighbors(v) {
            if !alive[u as usize] {
                continue;
            }
            if counts.remove_neighbor(u, color_v, attr_v)[attr_v.index()] == 0 {
                degs.per_attr[u as usize][attr_v.index()] -= 1;
                if (degs.min_degree(u) as usize) < k && !queued[u as usize] {
                    queue.push_back(u);
                    queued[u as usize] = true;
                }
            }
        }
    }
    alive
}

/// Vertices of the colorful k-core, as a sorted list.
pub fn colorful_k_core_vertices(
    g: &AttributedGraph,
    coloring: &Coloring,
    k: usize,
) -> Vec<VertexId> {
    colorful_k_core_mask(g, coloring, k)
        .iter()
        .enumerate()
        .filter_map(|(v, &keep)| keep.then_some(v as VertexId))
        .collect()
}

/// Full colorful core decomposition: colorful core numbers (Definition 8), colorful
/// degeneracy (Definition 9), and the peeling order (`CalColorOD`).
///
/// Uses lazy-deletion heap peeling on `D_min`: repeatedly remove the vertex with the
/// currently smallest `D_min`; its colorful core number is the running maximum of the
/// values at removal time. Runs in `O((|V| + |E|) log |V|)`.
pub fn colorful_core_decomposition(
    g: &AttributedGraph,
    coloring: &Coloring,
) -> ColorfulCoreDecomposition {
    let n = g.num_vertices();
    if n == 0 {
        return ColorfulCoreDecomposition {
            core_numbers: Vec::new(),
            colorful_degeneracy: 0,
            order: Vec::new(),
        };
    }
    let mut counts = NeighborColorCounts::new(g, coloring);
    let mut degs = counts.colorful_degrees();
    let mut alive = vec![true; n];
    let mut core = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<(u32, VertexId)>> = g
        .vertices()
        .map(|v| Reverse((degs.min_degree(v), v)))
        .collect();
    let mut running_max = 0u32;
    while let Some(Reverse((d, v))) = heap.pop() {
        if !alive[v as usize] || d != degs.min_degree(v) {
            continue; // stale heap entry
        }
        alive[v as usize] = false;
        running_max = running_max.max(d);
        core[v as usize] = running_max;
        order.push(v);
        let color_v = coloring.color(v);
        let attr_v = g.attribute(v);
        for &u in g.neighbors(v) {
            if !alive[u as usize] {
                continue;
            }
            if counts.remove_neighbor(u, color_v, attr_v)[attr_v.index()] == 0 {
                degs.per_attr[u as usize][attr_v.index()] -= 1;
                heap.push(Reverse((degs.min_degree(u), u)));
            }
        }
    }
    let colorful_degeneracy = core.iter().copied().max().unwrap_or(0);
    ColorfulCoreDecomposition {
        core_numbers: core,
        colorful_degeneracy,
        order,
    }
}

/// The colorful h-index of the graph (Definition 10): the largest `h` such that at least
/// `h` vertices have `D_min(v) ≥ h`.
pub fn colorful_h_index(g: &AttributedGraph, coloring: &Coloring) -> usize {
    let degs = colorful_degrees(g, coloring);
    let values: Vec<usize> = g.vertices().map(|v| degs.min_degree(v) as usize).collect();
    h_index_of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::greedy_coloring;
    use crate::fixtures;

    #[test]
    fn colorful_core_of_balanced_clique() {
        // K8 alternating: every vertex sees 3 colors of its own attribute and 4 of the
        // other, so Dmin = 3 everywhere: the graph is a colorful 3-core but not 4-core.
        let g = fixtures::balanced_clique(8);
        let c = greedy_coloring(&g);
        assert_eq!(colorful_k_core_vertices(&g, &c, 3).len(), 8);
        assert!(colorful_k_core_vertices(&g, &c, 4).is_empty());
        let d = colorful_core_decomposition(&g, &c);
        assert_eq!(d.colorful_degeneracy, 3);
        assert!(d.core_numbers.iter().all(|&x| x == 3));
        assert_eq!(colorful_h_index(&g, &c), 3);
    }

    #[test]
    fn colorful_core_peels_unbalanced_parts() {
        // Two cliques joined by a bridge: the all-a clique has D_b = 0 everywhere, so it
        // is peeled away entirely even for k = 1.
        let g = fixtures::two_cliques_with_bridge(6, 5);
        let c = greedy_coloring(&g);
        let keep = colorful_k_core_vertices(&g, &c, 1);
        assert!(keep.iter().all(|&v| (v as usize) < 6));
        assert!(!keep.is_empty());
    }

    #[test]
    fn colorful_core_nesting() {
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        for k in 0..5usize {
            let inner = colorful_k_core_vertices(&g, &c, k + 1);
            let outer = colorful_k_core_vertices(&g, &c, k);
            assert!(inner.iter().all(|v| outer.contains(v)), "nesting at k={k}");
        }
    }

    #[test]
    fn core_numbers_agree_with_k_core_membership() {
        // v is in the colorful k-core iff ccore(v) >= k.
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        let decomp = colorful_core_decomposition(&g, &c);
        for k in 0..=4usize {
            let mask = colorful_k_core_mask(&g, &c, k);
            for v in g.vertices() {
                assert_eq!(
                    mask[v as usize],
                    decomp.core_numbers[v as usize] as usize >= k,
                    "vertex {v}, k={k}"
                );
            }
        }
    }

    #[test]
    fn peeling_order_is_permutation() {
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        let decomp = colorful_core_decomposition(&g, &c);
        let mut sorted = decomp.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.num_vertices() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn colorful_degeneracy_bounds_fair_clique_side() {
        // In the Fig. 1 fixture the maximum fair clique (k=3, δ=1) has 7 vertices with
        // 4 a's and 3 b's. Its members must survive in the colorful 2-core (Lemma 1 with
        // k=3), so the colorful degeneracy is at least 2.
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        let d = colorful_core_decomposition(&g, &c);
        assert!(d.colorful_degeneracy >= 2);
    }

    #[test]
    fn empty_graph() {
        let g = crate::builder::GraphBuilder::new(0).build().unwrap();
        let c = greedy_coloring(&g);
        let d = colorful_core_decomposition(&g, &c);
        assert_eq!(d.colorful_degeneracy, 0);
        assert!(colorful_k_core_vertices(&g, &c, 0).is_empty());
        assert_eq!(colorful_h_index(&g, &c), 0);
    }

    #[test]
    fn path_graph_has_zero_colorful_core() {
        // In a path with alternating attributes each endpoint has a single neighbor, so
        // Dmin = 0 at the ends; interior vertices have one neighbor of each attribute.
        let g = fixtures::path_graph(5);
        let c = greedy_coloring(&g);
        let keep1 = colorful_k_core_vertices(&g, &c, 1);
        // The whole path unravels for k = 1: once the endpoints go, their neighbors
        // lose their only a- or b-neighbor, and so on.
        assert!(keep1.is_empty());
        let d = colorful_core_decomposition(&g, &c);
        assert!(d.colorful_degeneracy <= 1);
    }
}
