//! The enhanced colorful-support reduction `EnColorfulSup` (Definition 7, Lemma 4).
//!
//! `ColorfulSup` counts the colors of common neighbors per attribute independently, so a
//! color shared between an a-neighbor and a b-neighbor is counted for both — but inside
//! a clique each color can serve only one attribute. The enhanced variant therefore
//! partitions the common-neighbor colors of an edge into exclusive-a, exclusive-b and
//! mixed groups and assigns the mixed colors to attributes greedily against the edge's
//! demand (Example 3 of the paper): first top up the endpoints' own-attribute demand,
//! then the other attribute. Edges whose assigned supports still fall short are peeled.

use rfc_graph::coloring::greedy_coloring;
use rfc_graph::subgraph::edge_filtered_subgraph;
use rfc_graph::AttributedGraph;

use super::edge_support::{peel_edges, support_requirements};

/// Runs `EnColorfulSup` and returns the surviving subgraph (same vertex-id space).
pub fn en_colorful_sup_reduction(g: &AttributedGraph, k: usize) -> AttributedGraph {
    let alive = en_colorful_sup_alive_edges(g, k, 1);
    edge_filtered_subgraph(g, &alive)
}

/// Runs `EnColorfulSup` and returns the edge aliveness mask. `workers` caps the
/// threads of the support build; the mask does not depend on it.
pub fn en_colorful_sup_alive_edges(g: &AttributedGraph, k: usize, workers: usize) -> Vec<bool> {
    let coloring = greedy_coloring(g);
    peel_edges(g, &coloring, workers, |e, groups| {
        let (u, v) = g.edge_endpoints(e);
        let (need_a, need_b) = support_requirements(g.attribute(u), g.attribute(v), k);
        let (gsup_a, gsup_b) = groups.demand_assignment(need_a, need_b);
        gsup_a < need_a || gsup_b < need_b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_max_fair_clique;
    use crate::problem::FairCliqueParams;
    use crate::reduction::colorful_sup::colorful_sup_reduction;
    use rfc_graph::fixtures;
    use rfc_graph::{Attribute, GraphBuilder};

    #[test]
    fn enhanced_never_keeps_more_than_plain() {
        let g = fixtures::fig1_graph();
        for k in 1..=4usize {
            let plain = colorful_sup_reduction(&g, k);
            let enhanced = en_colorful_sup_reduction(&g, k);
            assert!(
                enhanced.num_edges() <= plain.num_edges(),
                "k={k}: enhanced kept more edges"
            );
        }
    }

    #[test]
    fn keeps_planted_clique_edges() {
        let g = fixtures::fig1_graph();
        for k in 1..=3usize {
            let reduced = en_colorful_sup_reduction(&g, k);
            let clique = [6u32, 7, 9, 10, 11, 12, 13, 14];
            for (i, &u) in clique.iter().enumerate() {
                for &v in &clique[i + 1..] {
                    assert!(reduced.has_edge(u, v), "k={k}: lost clique edge ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn reduction_is_safe_for_the_optimum() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let best_before = brute_force_max_fair_clique(&g, params).unwrap().size();
        let reduced = en_colorful_sup_reduction(&g, params.k);
        let best_after = brute_force_max_fair_clique(&reduced, params)
            .unwrap()
            .size();
        assert_eq!(best_before, best_after);
    }

    #[test]
    fn mixed_colors_are_not_double_counted_by_the_predicate() {
        // Fig. 2-style situation (Example 3): an edge between two a-vertices with k = 4,
        // whose common neighbors offer no exclusive a-colors, three exclusive b-colors
        // and two mixed colors. Plain colorful support counts the mixed colors for both
        // attributes and keeps the edge; the enhanced assignment shows the b-side demand
        // cannot be met.
        use crate::reduction::edge_support::support_requirements;
        use rfc_graph::colorful::ColorGroups;

        let groups = ColorGroups {
            exclusive: [0, 3],
            mixed: 2,
        };
        let (need_a, need_b) = support_requirements(Attribute::A, Attribute::A, 4);
        assert_eq!((need_a, need_b), (2, 4));
        // Plain supports: sup_attr = exclusive + mixed.
        let (sup_a, sup_b) = (
            groups.exclusive[0] + groups.mixed,
            groups.exclusive[1] + groups.mixed,
        );
        assert!(
            sup_a >= need_a && sup_b >= need_b,
            "plain check keeps the edge"
        );
        // Enhanced supports after exclusive assignment.
        let (gsup_a, gsup_b) = groups.demand_assignment(need_a, need_b);
        assert_eq!((gsup_a, gsup_b), (2, 3));
        assert!(gsup_b < need_b, "enhanced check removes the edge");
    }

    #[test]
    fn plain_keeps_example_edge_that_enhanced_also_keeps_for_small_k() {
        // Sanity: for small k both reductions agree on a well-supported clique edge.
        let mut b = GraphBuilder::new(6);
        for v in 0..6u32 {
            b.set_attribute(
                v,
                if v % 2 == 0 {
                    Attribute::A
                } else {
                    Attribute::B
                },
            );
            for u in 0..v {
                b.add_edge(u, v);
            }
        }
        let g = b.build().unwrap();
        let plain = colorful_sup_reduction(&g, 2);
        let enhanced = en_colorful_sup_reduction(&g, 2);
        assert_eq!(plain.num_edges(), g.num_edges());
        assert_eq!(enhanced.num_edges(), g.num_edges());
    }

    #[test]
    fn large_k_removes_all_edges() {
        let g = fixtures::fig1_graph();
        let reduced = en_colorful_sup_reduction(&g, 6);
        assert_eq!(reduced.num_edges(), 0);
    }
}
