//! Differential test of the out-of-core peel: `fair_core_peel` (wave 1 folded
//! into the seed scan, later waves read as ascending batches) and
//! `extract_residual` (a batch visit of the survivors) must agree exactly with a
//! plain reference kept in this file — seed counts from one scan, then one
//! `neighbors_into` read per dead vertex, wave by wave, and extraction by a full
//! scan.
//!
//! The survivor set is the unique fixpoint of a monotone criterion, and which wave
//! a vertex dies in does not depend on the order within a wave, so `alive`,
//! `rounds`, `cascade_reads` and `surviving_vertices` must all be equal, on every
//! store: the in-memory graph and both open modes of its `.rfcg` file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use rfc_core::reduction::streaming::{extract_residual, fair_core_peel};
use rfc_datasets::scale::{generate_scale_rfcg, ScaleConfig};
use rfc_graph::disk::{write_rfcg, DiskCsr};
use rfc_graph::store::GraphStore;
use rfc_graph::{Attribute, AttributedGraph, GraphBuilder, VertexId};

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rfc_peel_kernel_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let id = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{}_{tag}_{id}.rfcg", std::process::id()))
}

/// What the reference peel computes.
struct ReferencePeel {
    alive: Vec<bool>,
    rounds: u64,
    cascade_reads: u64,
    surviving_vertices: usize,
}

fn meets_criterion(k: usize, attr: Attribute, cnt_a: u32, cnt_b: u32) -> bool {
    let (need_a, need_b) = match attr {
        Attribute::A => (k.saturating_sub(1), k),
        Attribute::B => (k, k.saturating_sub(1)),
    };
    (cnt_a as usize) >= need_a
        && (cnt_b as usize) >= need_b
        && (cnt_a as usize + cnt_b as usize) >= (2 * k).saturating_sub(1)
}

/// The reference peel: full per-attribute counts from one scan, then the
/// vertices failing on them are wave 1, and every dead vertex's list is read on
/// its own to decrement its surviving neighbors.
fn reference_peel<S: GraphStore + ?Sized>(store: &S, k: usize) -> ReferencePeel {
    let n = store.num_vertices();
    let mut alive = vec![true; n];
    let mut cnt_a = vec![0u32; n];
    let mut cnt_b = vec![0u32; n];
    store
        .scan_adjacency(&mut |v, nbrs| {
            for &u in nbrs {
                match store.attribute(u) {
                    Attribute::A => cnt_a[v as usize] += 1,
                    Attribute::B => cnt_b[v as usize] += 1,
                }
            }
        })
        .unwrap();
    let mut frontier: Vec<VertexId> = Vec::new();
    for v in 0..n {
        if !meets_criterion(k, store.attribute(v as VertexId), cnt_a[v], cnt_b[v]) {
            alive[v] = false;
            frontier.push(v as VertexId);
        }
    }
    let (mut rounds, mut cascade_reads) = (0u64, 0u64);
    let mut buf: Vec<VertexId> = Vec::new();
    let mut next: Vec<VertexId> = Vec::new();
    while !frontier.is_empty() {
        rounds += 1;
        for &dead in &frontier {
            buf.clear();
            store.neighbors_into(dead, &mut buf).unwrap();
            cascade_reads += 1;
            for &u in &buf {
                let ui = u as usize;
                if !alive[ui] {
                    continue;
                }
                match store.attribute(dead) {
                    Attribute::A => cnt_a[ui] -= 1,
                    Attribute::B => cnt_b[ui] -= 1,
                }
                if !meets_criterion(k, store.attribute(u), cnt_a[ui], cnt_b[ui]) {
                    alive[ui] = false;
                    next.push(u);
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    let surviving_vertices = alive.iter().filter(|&&a| a).count();
    ReferencePeel {
        alive,
        rounds,
        cascade_reads,
        surviving_vertices,
    }
}

/// The reference extraction: the induced subgraph on `alive` by a full scan,
/// with dense ids in store order, plus the map back to store ids.
fn reference_extract<S: GraphStore + ?Sized>(
    store: &S,
    alive: &[bool],
) -> (AttributedGraph, Vec<VertexId>) {
    let vertex_map: Vec<VertexId> = (0..store.num_vertices() as VertexId)
        .filter(|&v| alive[v as usize])
        .collect();
    let mut new_id = vec![None; alive.len()];
    for (i, &v) in vertex_map.iter().enumerate() {
        new_id[v as usize] = Some(i as VertexId);
    }
    let attrs = vertex_map.iter().map(|&v| store.attribute(v)).collect();
    let mut builder = GraphBuilder::with_attributes(attrs);
    store
        .scan_adjacency(&mut |v, nbrs| {
            for &u in nbrs {
                if let (Some(nv), Some(nu), true) = (new_id[v as usize], new_id[u as usize], v < u)
                {
                    builder.add_edge(nv, nu);
                }
            }
        })
        .unwrap();
    (builder.build().unwrap(), vertex_map)
}

/// Checks the peel and the extraction against the reference on `g` and on both
/// open modes of its `.rfcg` file, for every `k` in `ks`.
fn assert_matches_reference(
    tag: &str,
    g: &AttributedGraph,
    path: &Path,
    ks: impl Iterator<Item = usize>,
) {
    let streaming = DiskCsr::open(path).unwrap();
    let resident = DiskCsr::open_resident(path).unwrap();
    let stores: [(&str, &dyn GraphStore); 3] = [
        ("memory", g),
        ("streaming", &streaming),
        ("resident", &resident),
    ];
    for k in ks {
        let expected = reference_peel(g, k);
        let (expected_graph, expected_map) = reference_extract(g, &expected.alive);
        for (mode, store) in stores {
            let peel = fair_core_peel(store, k).unwrap();
            let got = ReferencePeel {
                alive: peel.alive,
                rounds: peel.stats.rounds,
                cascade_reads: peel.stats.cascade_reads,
                surviving_vertices: peel.stats.surviving_vertices,
            };
            assert_eq!(
                (got.rounds, got.cascade_reads, got.surviving_vertices),
                (
                    expected.rounds,
                    expected.cascade_reads,
                    expected.surviving_vertices
                ),
                "{tag} k={k} {mode}: (rounds, cascade_reads, surviving_vertices)"
            );
            assert!(
                got.alive == expected.alive,
                "{tag} k={k} {mode}: survivor set differs from the reference"
            );
            let residual = extract_residual(store, &got.alive).unwrap();
            assert_eq!(
                residual.graph, expected_graph,
                "{tag} k={k} {mode}: residual graph"
            );
            assert_eq!(
                residual.vertex_map, expected_map,
                "{tag} k={k} {mode}: vertex map"
            );
        }
    }
}

/// Power-law instances with a planted 20-vertex fair clique, across attribute
/// skews and every `k` from below to above the clique's reach.
#[test]
fn peel_matches_reference_on_generated_instances() {
    for seed in [3u64, 4, 5] {
        for prob_a in [0.3, 0.5, 0.7] {
            let path = temp_path("gen");
            let config = ScaleConfig {
                chunk_entries: 1 << 16,
                ..ScaleConfig::new(40_000).with_prob_a(prob_a)
            };
            generate_scale_rfcg(&config, seed, &path).unwrap();
            let g = DiskCsr::open(&path).unwrap().to_graph().unwrap();
            let tag = format!("seed={seed} prob_a={prob_a}");
            assert_matches_reference(&tag, &g, &path, 2..=11);
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A compact description of a random attributed graph: per-vertex attribute
/// bits plus one bit per pair.
#[derive(Debug, Clone)]
struct RandomGraph {
    attrs: Vec<bool>,
    edges: Vec<bool>,
}

impl RandomGraph {
    fn build(&self) -> AttributedGraph {
        let n = self.attrs.len();
        let attrs = self
            .attrs
            .iter()
            .map(|&a| if a { Attribute::A } else { Attribute::B })
            .collect();
        let mut b = GraphBuilder::with_attributes(attrs);
        let mut idx = 0usize;
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if self.edges[idx] {
                    b.add_edge(u, v);
                }
                idx += 1;
            }
        }
        b.build().expect("generated graph is valid")
    }
}

fn random_graph(max_n: usize) -> impl Strategy<Value = RandomGraph> {
    (0..=max_n).prop_flat_map(|n| {
        let pairs = n.saturating_sub(1) * n / 2;
        (
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(proptest::bool::weighted(0.5), pairs),
        )
            .prop_map(|(attrs, edges)| RandomGraph { attrs, edges })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn peel_matches_reference_on_random_graphs(rg in random_graph(24)) {
        let g = rg.build();
        let path = temp_path("prop");
        write_rfcg(&g, &path).unwrap();
        assert_matches_reference("random", &g, &path, 1..=5);
        std::fs::remove_file(&path).ok();
    }
}
