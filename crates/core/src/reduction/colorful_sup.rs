//! The colorful-support reduction `ColorfulSup` (Algorithm 1, Lemma 3).
//!
//! For an edge `(u, v)` and attribute `x`, the colorful support `sup_x(u, v)` is the
//! number of distinct colors among the common neighbors of `u` and `v` with attribute
//! `x` (Definition 6). Inside a relative fair clique of size ≥ 2k every edge must be
//! supported by enough differently-colored common neighbors of each attribute
//! (`k−2` of the endpoints' own attribute when they share it, `k` of the other, and
//! `k−1`/`k−1` for mixed edges), so edges falling short are peeled iteratively.

use rfc_graph::coloring::greedy_coloring;
use rfc_graph::subgraph::edge_filtered_subgraph;
use rfc_graph::AttributedGraph;

use super::edge_support::{peel_edges, support_requirements};

/// Runs `ColorfulSup` and returns the surviving subgraph (same vertex-id space).
pub fn colorful_sup_reduction(g: &AttributedGraph, k: usize) -> AttributedGraph {
    let alive = colorful_sup_alive_edges(g, k, 1);
    edge_filtered_subgraph(g, &alive)
}

/// Runs `ColorfulSup` and returns the edge aliveness mask (useful for composing with
/// other edge filters without materializing intermediate graphs). `workers` caps the
/// threads of the support build; the mask does not depend on it.
pub fn colorful_sup_alive_edges(g: &AttributedGraph, k: usize, workers: usize) -> Vec<bool> {
    let coloring = greedy_coloring(g);
    peel_edges(g, &coloring, workers, |e, groups| {
        let (u, v) = g.edge_endpoints(e);
        let (need_a, need_b) = support_requirements(g.attribute(u), g.attribute(v), k);
        let (sup_a, sup_b) = groups.colorful_support();
        sup_a < need_a || sup_b < need_b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_max_fair_clique;
    use crate::problem::FairCliqueParams;
    use rfc_graph::fixtures;

    #[test]
    fn removes_edge_from_example2() {
        // Example 2: for k = 3, edge (v2, v5) has sup_b = 1 < k - 1 = 2 and must go.
        let g = fixtures::fig1_graph();
        let reduced = colorful_sup_reduction(&g, 3);
        assert!(!reduced.has_edge(1, 4));
    }

    #[test]
    fn keeps_planted_clique_edges() {
        let g = fixtures::fig1_graph();
        for k in 1..=3usize {
            let reduced = colorful_sup_reduction(&g, k);
            let clique = [6u32, 7, 9, 10, 11, 12, 13, 14];
            for (i, &u) in clique.iter().enumerate() {
                for &v in &clique[i + 1..] {
                    assert!(reduced.has_edge(u, v), "k={k}: lost clique edge ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn large_k_removes_all_edges() {
        let g = fixtures::fig1_graph();
        let reduced = colorful_sup_reduction(&g, 6);
        assert_eq!(reduced.num_edges(), 0);
    }

    #[test]
    fn reduction_is_safe_for_the_optimum() {
        // The maximum fair clique of the original graph must survive the reduction
        // unchanged (Lemma 3 safety).
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let best_before = brute_force_max_fair_clique(&g, params)
            .expect("fixture has a fair clique")
            .size();
        let reduced = colorful_sup_reduction(&g, params.k);
        let best_after = brute_force_max_fair_clique(&reduced, params)
            .expect("optimum survives reduction")
            .size();
        assert_eq!(best_before, best_after);
    }

    #[test]
    fn k_zero_and_one_keep_all_triangle_edges() {
        // With k <= 1 the requirements are at most (0, 1)/(1, 0)/(0, 0); edges inside
        // any triangle with both attributes present survive.
        let g = fixtures::balanced_clique(4);
        let reduced = colorful_sup_reduction(&g, 1);
        assert_eq!(reduced.num_edges(), g.num_edges());
    }
}
