//! Differential test of the reduction kernels: the flat color-count stores and the
//! hub-aware mark-and-scan triangle kernel behind `EnColorfulCore`, `ColorfulSup` and
//! `EnColorfulSup` must produce exactly the masks of a plain reference kept in this
//! file — sorted-merge common neighbors, `BTreeMap` color counts and a FIFO peel,
//! written straight from the paper's definitions.
//!
//! Each peel's result is the unique largest subgraph on which its (monotone)
//! predicate holds, so the masks must agree bit for bit at every thread count.
//! `RFC_TEST_THREADS=N` tests exactly `N` workers; unset tests 2 (CI adds 1 and 4).
//! Graphs too small to pay for threads build on one worker whatever the setting, so
//! the paper analogs and the big component are what exercise the parallel build.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use rfc_bench::workloads::big_component_graph;
use rfc_core::reduction::colorful_sup::colorful_sup_alive_edges;
use rfc_core::reduction::en_colorful_sup::en_colorful_sup_alive_edges;
use rfc_datasets::PaperDataset;
use rfc_graph::colorful::enhanced_colorful_k_core_mask;
use rfc_graph::coloring::{greedy_coloring, Coloring};
use rfc_graph::fixtures;
use rfc_graph::subgraph::{edge_filtered_subgraph, vertex_filtered_subgraph};
use rfc_graph::{Attribute, AttributedGraph, EdgeId, GraphBuilder, VertexId};

/// Thread counts to exercise, from `RFC_TEST_THREADS` (see module docs).
fn thread_counts() -> Vec<usize> {
    match std::env::var("RFC_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("RFC_TEST_THREADS must be a thread count such as 1 or 4")],
        Err(_) => vec![2],
    }
}

/// `color -> [#attribute-a vertices, #attribute-b vertices]`.
type ColorCounts = BTreeMap<u32, [u32; 2]>;

/// Exclusive-a, exclusive-b and mixed color counts.
fn color_groups(counts: &ColorCounts) -> (usize, usize, usize) {
    let (mut ca, mut cb, mut cm) = (0, 0, 0);
    for &[a, b] in counts.values() {
        match (a > 0, b > 0) {
            (true, true) => cm += 1,
            (true, false) => ca += 1,
            (false, true) => cb += 1,
            (false, false) => {}
        }
    }
    (ca, cb, cm)
}

fn add(counts: &mut ColorCounts, coloring: &Coloring, g: &AttributedGraph, w: VertexId) {
    counts.entry(coloring.color(w)).or_insert([0, 0])[g.attribute(w).index()] += 1;
}

fn remove(counts: &mut ColorCounts, coloring: &Coloring, g: &AttributedGraph, w: VertexId) {
    let color = coloring.color(w);
    let entry = counts.get_mut(&color).expect("removed vertex was counted");
    entry[g.attribute(w).index()] -= 1;
    if *entry == [0, 0] {
        counts.remove(&color);
    }
}

/// Enhanced colorful degree (Definition 4) by trying every split of the mixed colors.
fn enhanced_degree(counts: &ColorCounts) -> usize {
    let (ca, cb, cm) = color_groups(counts);
    (0..=cm).map(|x| (ca + x).min(cb + cm - x)).max().unwrap()
}

/// Reference `EnColorfulCore` mask: the enhanced colorful `(k−1)`-core (Lemma 2).
fn reference_core_mask(g: &AttributedGraph, coloring: &Coloring, k: usize) -> Vec<bool> {
    let threshold = k.saturating_sub(1);
    let n = g.num_vertices();
    let mut counts: Vec<ColorCounts> = vec![ColorCounts::new(); n];
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            add(&mut counts[v as usize], coloring, g, u);
        }
    }
    let mut alive = vec![true; n];
    let mut queued = vec![false; n];
    let mut queue = VecDeque::new();
    for v in g.vertices() {
        if enhanced_degree(&counts[v as usize]) < threshold {
            queued[v as usize] = true;
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        alive[v as usize] = false;
        for &u in g.neighbors(v) {
            if !alive[u as usize] {
                continue;
            }
            remove(&mut counts[u as usize], coloring, g, v);
            if !queued[u as usize] && enhanced_degree(&counts[u as usize]) < threshold {
                queued[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    alive
}

/// Support an edge between attributes `x` and `y` needs per attribute (Lemma 3).
fn demand(x: Attribute, y: Attribute, k: usize) -> (usize, usize) {
    match (x, y) {
        (Attribute::A, Attribute::A) => (k.saturating_sub(2), k),
        (Attribute::B, Attribute::B) => (k, k.saturating_sub(2)),
        _ => (k.saturating_sub(1), k.saturating_sub(1)),
    }
}

/// `ColorfulSup` violation (Definition 6, Lemma 3): too few distinct colors per
/// attribute, a mixed color counting for both.
fn colorful_sup_violates(counts: &ColorCounts, need: (usize, usize)) -> bool {
    let (ca, cb, cm) = color_groups(counts);
    ca + cm < need.0 || cb + cm < need.1
}

/// `EnColorfulSup` violation (Definition 7, Lemma 4): no assignment of each mixed
/// color to one attribute meets both demands.
fn en_colorful_sup_violates(counts: &ColorCounts, need: (usize, usize)) -> bool {
    let (ca, cb, cm) = color_groups(counts);
    need.0.saturating_sub(ca) + need.1.saturating_sub(cb) > cm
}

/// Calls `f(w, edge (u, w), edge (v, w))` for every common neighbor `w`, by sorted
/// merge of the two adjacency lists.
fn merge_common(
    g: &AttributedGraph,
    u: VertexId,
    v: VertexId,
    mut f: impl FnMut(VertexId, EdgeId, EdgeId),
) {
    let (nu, nv) = (g.neighbors(u), g.neighbors(v));
    let (eu, ev) = (g.neighbor_edge_ids(u), g.neighbor_edge_ids(v));
    let (mut i, mut j) = (0, 0);
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(nu[i], eu[i], ev[j]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Reference truss-style edge peel: FIFO, one edge at a time, every triangle torn
/// down once, when its first edge leaves.
fn reference_edge_mask(
    g: &AttributedGraph,
    coloring: &Coloring,
    k: usize,
    violates: fn(&ColorCounts, (usize, usize)) -> bool,
) -> Vec<bool> {
    let m = g.num_edges();
    let need = |e: EdgeId| {
        let (u, v) = g.edge_endpoints(e);
        demand(g.attribute(u), g.attribute(v), k)
    };
    let mut counts: Vec<ColorCounts> = vec![ColorCounts::new(); m];
    for e in 0..m as EdgeId {
        let (u, v) = g.edge_endpoints(e);
        merge_common(g, u, v, |w, _, _| {
            add(&mut counts[e as usize], coloring, g, w)
        });
    }
    let mut alive = vec![true; m];
    let mut queued = vec![false; m];
    let mut queue = VecDeque::new();
    for e in 0..m as EdgeId {
        if violates(&counts[e as usize], need(e)) {
            queued[e as usize] = true;
            queue.push_back(e);
        }
    }
    while let Some(e) = queue.pop_front() {
        alive[e as usize] = false;
        let (u, v) = g.edge_endpoints(e);
        let mut torn = Vec::new();
        merge_common(g, u, v, |_, e_uw, e_vw| {
            if alive[e_uw as usize] && alive[e_vw as usize] {
                torn.push((e_uw, e_vw));
            }
        });
        for (e_uw, e_vw) in torn {
            for (edge, lost) in [(e_uw, v), (e_vw, u)] {
                remove(&mut counts[edge as usize], coloring, g, lost);
                if !queued[edge as usize] && violates(&counts[edge as usize], need(edge)) {
                    queued[edge as usize] = true;
                    queue.push_back(edge);
                }
            }
        }
    }
    alive
}

/// Checks all three stages on `g` at `k`, chained as in the pipeline, against the
/// reference at every thread count. With `en_alone`, `EnColorfulSup` also runs
/// straight on the core, where it peels far more than after `ColorfulSup`.
fn check_pipeline(label: &str, g: &AttributedGraph, k: usize, en_alone: bool) {
    let coloring = greedy_coloring(g);
    let core = enhanced_colorful_k_core_mask(g, &coloring, k.saturating_sub(1));
    assert_eq!(
        core,
        reference_core_mask(g, &coloring, k),
        "{label} k={k}: EnColorfulCore mask"
    );
    let g1 = vertex_filtered_subgraph(g, &core);
    let coloring1 = greedy_coloring(&g1);
    let sup_ref = reference_edge_mask(&g1, &coloring1, k, colorful_sup_violates);
    let g2 = edge_filtered_subgraph(&g1, &sup_ref);
    let coloring2 = greedy_coloring(&g2);
    let en_ref = reference_edge_mask(&g2, &coloring2, k, en_colorful_sup_violates);
    let en_alone_ref =
        en_alone.then(|| reference_edge_mask(&g1, &coloring1, k, en_colorful_sup_violates));
    for workers in thread_counts() {
        assert_eq!(
            colorful_sup_alive_edges(&g1, k, workers),
            sup_ref,
            "{label} k={k} workers={workers}: ColorfulSup mask"
        );
        assert_eq!(
            en_colorful_sup_alive_edges(&g2, k, workers),
            en_ref,
            "{label} k={k} workers={workers}: EnColorfulSup mask after ColorfulSup"
        );
        if let Some(en_alone_ref) = &en_alone_ref {
            assert_eq!(
                &en_colorful_sup_alive_edges(&g1, k, workers),
                en_alone_ref,
                "{label} k={k} workers={workers}: EnColorfulSup mask on the core"
            );
        }
    }
}

#[test]
fn fixtures_match_the_reference() {
    let graphs = [
        ("fig1", fixtures::fig1_graph()),
        ("fig2", fixtures::fig2_graph()),
        ("balanced K8", fixtures::balanced_clique(8)),
        ("two cliques", fixtures::two_cliques_with_bridge(6, 5)),
        ("path", fixtures::path_graph(6)),
    ];
    for (label, g) in &graphs {
        for k in 1..=5 {
            check_pipeline(label, g, k, true);
        }
    }
}

#[test]
fn paper_analogs_match_the_reference_at_their_k_values() {
    for dataset in PaperDataset::ALL {
        let spec = dataset.spec();
        let g = spec.generate();
        for k in spec.k_values() {
            check_pipeline(&format!("{dataset:?}"), &g, k, false);
        }
    }
}

#[test]
fn big_component_matches_the_reference() {
    let g = big_component_graph(800, 17);
    check_pipeline("big_component_graph(800)", &g, 3, true);
}

/// A random attributed graph: per-vertex attribute bits plus one bit per vertex pair.
fn random_graph(max_n: usize) -> impl Strategy<Value = AttributedGraph> {
    (4..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(proptest::bool::weighted(0.6), n * (n - 1) / 2),
        )
            .prop_map(|(attrs, pairs)| {
                let n = attrs.len() as VertexId;
                let attrs = attrs
                    .into_iter()
                    .map(|a| if a { Attribute::A } else { Attribute::B })
                    .collect();
                let mut b = GraphBuilder::with_attributes(attrs);
                let mut bits = pairs.into_iter();
                for u in 0..n {
                    for v in u + 1..n {
                        if bits.next() == Some(true) {
                            b.add_edge(u, v);
                        }
                    }
                }
                b.build().expect("generated graph is valid")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_graphs_match_the_reference(g in random_graph(24), k in 1usize..=4) {
        check_pipeline("proptest", &g, k, true);
    }
}
