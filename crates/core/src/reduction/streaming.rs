//! Out-of-core first-pass reduction over a [`GraphStore`].
//!
//! The exact reduction pipeline ([`super::apply_reductions`])
//! clones and rebuilds the graph per stage — perfect for the residual the search
//! runs on, unaffordable for a raw multi-million-vertex input. This module runs a
//! weaker but *sound* first pass directly against any [`GraphStore`] (in
//! particular the on-disk [`DiskCsr`](rfc_graph::disk::DiskCsr)) while keeping
//! only O(n) per-vertex state in memory:
//!
//! * [`fair_core_peel`] — iterated **fair-core** peeling: a vertex can belong to a
//!   fair clique with parameter `k` (under *any* of the three fairness models,
//!   which all force at least `k` members per attribute) only if it has at least
//!   `k − [attr(v) = a]` surviving neighbors of attribute `a`, at least
//!   `k − [attr(v) = b]` of attribute `b`, and hence total surviving degree at
//!   least `2k − 1`. Peeling repeats until a fixpoint. The criterion is implied by
//!   membership in the enhanced colorful `(k−1)`-core, so the survivor set is a
//!   superset of what `EnColorfulCore` keeps: no vertex of any fair clique is ever
//!   lost, and the exact pipeline still runs afterwards on the residual.
//! * [`extract_residual`] — materializes the survivors as a compact in-memory
//!   [`AttributedGraph`] (dense new ids) plus the id map back to store ids.
//! * [`reduce_store`] — the composition: peel → extract → exact pipeline,
//!   returning the fully reduced residual and all statistics.
//!
//! Memory and I/O model: the peel holds two signed 4-byte counters and one flag
//! per vertex (9 bytes/vertex) plus the current and next wave's ids. Its I/O is
//! one full adjacency scan followed by one batch visit per later wave:
//!
//! * **Wave 1 rides on the seed scan.** A vertex's wave-1 fate depends only on
//!   its own list, so when the scan hands over `v`'s list the peel counts it,
//!   and if `v` fails the criterion it dies and decrements its neighbors'
//!   counters right there, from the same list. A neighbor scanned later starts
//!   below zero and reaches its true count when its own list arrives, hence the
//!   signed counters.
//! * **Later waves are batch visits.** Each wave's dead vertices are visited in
//!   ascending order ([`GraphStore::visit_adjacency`]), which a disk store serves
//!   with a few coalesced reads instead of one read per dead vertex.
//!
//! [`extract_residual`] then visits the survivors' lists only.

use std::io;

use rfc_graph::store::GraphStore;
use rfc_graph::{Attribute, AttributedGraph, GraphBuilder, VertexId};

use super::{apply_reductions, ReductionConfig, ReductionStats};
use crate::problem::FairCliqueParams;

/// Statistics for one [`fair_core_peel`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeelStats {
    /// Vertices in the input store.
    pub initial_vertices: usize,
    /// Edges in the input store.
    pub initial_edges: usize,
    /// Vertices surviving the peel.
    pub surviving_vertices: usize,
    /// Adjacency lists applied for dead vertices: each dead vertex's list is
    /// applied once, to decrement its surviving neighbors' counters.
    pub cascade_reads: u64,
    /// Peeling waves until the fixpoint: the seed scan's failures are round 1, the
    /// deaths they trigger are round 2, and so on. 0 means nothing was peeled.
    pub rounds: u64,
    /// Wall-clock time of the seed scan, wave 1 included, in microseconds.
    pub scan_micros: u64,
    /// Wall-clock time of the waves after the first, in microseconds.
    pub cascade_micros: u64,
}

/// Result of [`fair_core_peel`]: which vertices survive, plus statistics.
#[derive(Debug, Clone)]
pub struct PeelOutcome {
    /// `alive[v]` is `true` iff vertex `v` survived the peel.
    pub alive: Vec<bool>,
    /// Counters for the run.
    pub stats: PeelStats,
}

impl PeelOutcome {
    /// Ids of the surviving vertices, ascending.
    pub fn survivors(&self) -> Vec<VertexId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

/// Whether a vertex still meets the fair-core criterion given its surviving
/// per-attribute neighbor counts. A negative count, which only adjacency that is
/// not symmetric can leave behind, fails.
fn meets_criterion(
    k: usize,
    attr: Attribute,
    cnt_a: impl Into<i64>,
    cnt_b: impl Into<i64>,
) -> bool {
    let (cnt_a, cnt_b, k) = (cnt_a.into(), cnt_b.into(), k as i64);
    let (need_a, need_b) = match attr {
        Attribute::A => ((k - 1).max(0), k),
        Attribute::B => (k, (k - 1).max(0)),
    };
    cnt_a >= need_a && cnt_b >= need_b && cnt_a + cnt_b >= (2 * k - 1).max(0)
}

/// Iterated fair-core peeling over any [`GraphStore`], keeping only per-vertex
/// degree counters and alive flags in memory.
///
/// One adjacency scan counts each vertex's neighbors per attribute and removes
/// the vertices that fail on their full counts (wave 1); each later wave then
/// visits the lists of the vertices the previous wave killed, in one ascending
/// batch. Sound for every fairness model with parameter `k` (see the module
/// docs) and independent of `δ`, matching how the exact pipeline is cached per
/// `(k, config)`.
pub fn fair_core_peel<S: GraphStore + ?Sized>(store: &S, k: usize) -> io::Result<PeelOutcome> {
    fair_core_peel_controlled(store, k, None)
        .map(|o| o.expect("uncontrolled peel cannot be interrupted"))
}

/// How many adjacency lists the peel applies between budget/cancel probes. A
/// wave's batch visit is split into chunks of this many lists, which bounds the
/// time between probes even on stores with slow reads.
const PEEL_CHECK_CHUNK: usize = 4096;

/// [`fair_core_peel`] with a cooperative stop check between waves and every
/// [`PEEL_CHECK_CHUNK`] lists, the seed scan's included.
///
/// Returns `Ok(None)` when the control trips: the partially peeled state is
/// discarded (it *over*-approximates the survivor set, so discarding is the only
/// sound option short of finishing the fixpoint — callers must not treat a partial
/// peel as a complete one).
pub(crate) fn fair_core_peel_controlled<S: GraphStore + ?Sized>(
    store: &S,
    k: usize,
    ctrl: Option<&crate::search::control::SearchControl>,
) -> io::Result<Option<PeelOutcome>> {
    let tripped =
        |c: Option<&crate::search::control::SearchControl>| c.is_some_and(|c| c.check_now());
    if tripped(ctrl) {
        return Ok(None);
    }
    let n = store.num_vertices();
    let mut stats = PeelStats {
        initial_vertices: n,
        initial_edges: store.num_edges(),
        ..PeelStats::default()
    };
    let mut alive = vec![true; n];
    let mut cnt_a = vec![0i32; n];
    let mut cnt_b = vec![0i32; n];

    // Wave 1, folded into the seed scan: each vertex's fate on its full counts.
    let t = std::time::Instant::now();
    let mut stopped = false;
    store.scan_adjacency(&mut |v, nbrs| {
        if stopped || (v as usize % PEEL_CHECK_CHUNK == PEEL_CHECK_CHUNK - 1 && tripped(ctrl)) {
            stopped = true;
            return;
        }
        // Branch-free counts: attributes along a list are as good as random.
        let b: i32 = nbrs
            .iter()
            .map(|&u| store.attribute(u).index() as i32)
            .sum();
        let a = nbrs.len() as i32 - b;
        let attr = store.attribute(v);
        if meets_criterion(k, attr, a, b) {
            cnt_a[v as usize] += a;
            cnt_b[v as usize] += b;
            return;
        }
        alive[v as usize] = false;
        stats.cascade_reads += 1;
        let cnt = match attr {
            Attribute::A => &mut cnt_a,
            Attribute::B => &mut cnt_b,
        };
        // Dead neighbors are decremented too: their counters are never read
        // again, and skipping them would cost a hard-to-predict branch per entry.
        for &u in nbrs {
            cnt[u as usize] -= 1;
        }
    })?;
    stats.scan_micros = t.elapsed().as_micros() as u64;
    if stopped || tripped(ctrl) {
        return Ok(None);
    }
    if stats.cascade_reads > 0 {
        stats.rounds = 1;
    }

    // Waves 2, 3, …: the survivors of wave 1 that fail on the decremented counts,
    // then the vertices each wave's removals kill, until the fixpoint. Which
    // vertex dies in which wave does not depend on the order within a wave, so
    // each wave is read as one ascending batch.
    let t = std::time::Instant::now();
    let mut frontier: Vec<VertexId> = Vec::new();
    for v in 0..n {
        if alive[v] && !meets_criterion(k, store.attribute(v as VertexId), cnt_a[v], cnt_b[v]) {
            alive[v] = false;
            frontier.push(v as VertexId);
        }
    }
    let mut next: Vec<VertexId> = Vec::new();
    while !frontier.is_empty() {
        stats.rounds += 1;
        for chunk in frontier.chunks(PEEL_CHECK_CHUNK) {
            if tripped(ctrl) {
                return Ok(None);
            }
            store.visit_adjacency(chunk, &mut |dead, nbrs| {
                let dead_attr = store.attribute(dead);
                for &u in nbrs {
                    let ui = u as usize;
                    if !alive[ui] {
                        continue;
                    }
                    match dead_attr {
                        Attribute::A => cnt_a[ui] -= 1,
                        Attribute::B => cnt_b[ui] -= 1,
                    }
                    if !meets_criterion(k, store.attribute(u), cnt_a[ui], cnt_b[ui]) {
                        alive[ui] = false;
                        next.push(u);
                    }
                }
            })?;
            stats.cascade_reads += chunk.len() as u64;
        }
        next.sort_unstable();
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    stats.cascade_micros = t.elapsed().as_micros() as u64;
    stats.surviving_vertices = alive.iter().filter(|&&a| a).count();

    Ok(Some(PeelOutcome { alive, stats }))
}

/// The peel survivors materialized as a compact in-memory graph.
#[derive(Debug, Clone)]
pub struct Residual {
    /// The surviving subgraph with dense vertex ids `0..survivors`.
    pub graph: AttributedGraph,
    /// `vertex_map[new_id] = store_id`: translate residual ids back to the store.
    pub vertex_map: Vec<VertexId>,
}

impl Residual {
    /// Translates a set of residual vertex ids back to store ids (sorted).
    pub fn to_store_ids(&self, vertices: &[VertexId]) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = vertices
            .iter()
            .map(|&v| self.vertex_map[v as usize])
            .collect();
        out.sort_unstable();
        out
    }
}

/// Extracts the `alive` subgraph of a store as a compact [`AttributedGraph`] by
/// visiting the survivors' adjacency lists only. Resident memory is proportional
/// to the *residual* (survivor) size, not the store size, apart from the
/// `n`-sized id translation table.
pub fn extract_residual<S: GraphStore + ?Sized>(store: &S, alive: &[bool]) -> io::Result<Residual> {
    assert_eq!(alive.len(), store.num_vertices(), "alive flags mismatch");
    const DEAD: VertexId = VertexId::MAX;
    let mut new_id = vec![DEAD; alive.len()];
    let mut vertex_map: Vec<VertexId> = Vec::new();
    for (v, &is_alive) in alive.iter().enumerate() {
        if is_alive {
            new_id[v] = vertex_map.len() as VertexId;
            vertex_map.push(v as VertexId);
        }
    }
    let attrs: Vec<Attribute> = vertex_map.iter().map(|&v| store.attribute(v)).collect();
    let mut builder = GraphBuilder::with_attributes(attrs);
    store.visit_adjacency(&vertex_map, &mut |v, nbrs| {
        let nv = new_id[v as usize];
        for &u in nbrs {
            // Each surviving edge is seen from both endpoints; add it once.
            if v < u && new_id[u as usize] != DEAD {
                builder.add_edge(nv, new_id[u as usize]);
            }
        }
    })?;
    let graph = builder
        .build()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Residual { graph, vertex_map })
}

/// Statistics for a full [`reduce_store`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingReductionStats {
    /// The out-of-core peel.
    pub peel: PeelStats,
    /// Wall-clock time of residual extraction, in microseconds.
    pub extract_micros: u64,
    /// The exact in-memory pipeline that ran on the extracted residual.
    pub exact: ReductionStats,
}

/// Result of [`reduce_store`]: the fully reduced residual graph, the id map back
/// to store ids, and per-phase statistics.
#[derive(Debug, Clone)]
pub struct StreamingReduction {
    /// The reduced graph (dense ids; vertices removed by the exact pipeline are
    /// isolated, exactly as [`apply_reductions`] leaves them).
    pub graph: AttributedGraph,
    /// `vertex_map[residual_id] = store_id`.
    pub vertex_map: Vec<VertexId>,
    /// Per-phase statistics.
    pub stats: StreamingReductionStats,
}

/// Full scale-tier reduction: out-of-core fair-core peel, residual extraction,
/// then the exact in-memory pipeline (`EnColorfulCore` → `ColorfulSup` →
/// `EnColorfulSup` as configured) on the residual.
///
/// Only the peel and extraction touch the store; everything downstream operates
/// on the in-memory residual, so peak resident graph memory is bounded by the
/// residual size plus O(n) counters.
pub fn reduce_store<S: GraphStore + ?Sized>(
    store: &S,
    params: FairCliqueParams,
    config: &ReductionConfig,
) -> io::Result<StreamingReduction> {
    let peel = fair_core_peel(store, params.k)?;
    let t = std::time::Instant::now();
    let residual = extract_residual(store, &peel.alive)?;
    let extract_micros = t.elapsed().as_micros() as u64;
    let (graph, exact) = apply_reductions(&residual.graph, params, config);
    Ok(StreamingReduction {
        graph,
        vertex_map: residual.vertex_map,
        stats: StreamingReductionStats {
            peel: peel.stats,
            extract_micros,
            exact,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::colorful_core::en_colorful_core_reduction;
    use rfc_graph::fixtures;

    /// Soundness: no vertex of any fair clique is peeled, and the survivor set is
    /// a fixpoint of the criterion (every survivor still meets it counting only
    /// surviving neighbors).
    #[test]
    fn peel_is_sound_and_a_fixpoint() {
        let g = fixtures::fig1_graph();
        for k in 1..=4usize {
            let peel = fair_core_peel(&g, k).unwrap();
            // Fixpoint: recompute surviving per-attribute counts from scratch.
            for v in g.vertices() {
                if !peel.alive[v as usize] {
                    continue;
                }
                let (mut a, mut b) = (0u32, 0u32);
                for &u in g.neighbors(v) {
                    if peel.alive[u as usize] {
                        match g.attribute(u) {
                            Attribute::A => a += 1,
                            Attribute::B => b += 1,
                        }
                    }
                }
                assert!(
                    meets_criterion(k, g.attribute(v), a, b),
                    "k={k}: survivor {v} no longer meets the criterion"
                );
            }
            // Soundness: every maximal weak-k fair clique survives intact. The
            // weak model is the least constrained, so its cliques cover the
            // relative and strong models' cliques too.
            let solver = crate::solver::RfcSolver::new(g.clone());
            let mut sink = crate::enumerate::CollectSink::new();
            let query = crate::enumerate::EnumQuery::new(crate::problem::FairnessModel::Weak { k });
            solver.enumerate(&query, &mut sink).unwrap();
            for clique in sink.cliques() {
                for &v in &clique.vertices {
                    assert!(
                        peel.alive[v as usize],
                        "k={k}: peel dropped fair-clique vertex {v}"
                    );
                }
            }
        }
    }

    /// The peel removes at least as much as plain `(2k−1)`-core-style degree
    /// filtering and never more than the exact `EnColorfulSup` pipeline allows —
    /// sanity-check it against the exact `EnColorfulCore` stage output on the
    /// running example (both keep the planted clique).
    #[test]
    fn peel_and_en_colorful_core_both_keep_planted_clique() {
        let g = fixtures::fig1_graph();
        for k in 1..=3usize {
            let peel = fair_core_peel(&g, k).unwrap();
            let exact = en_colorful_core_reduction(&g, k);
            for v in [6u32, 7, 9, 10, 11, 12, 13, 14] {
                assert!(peel.alive[v as usize], "k={k}: peel lost clique vertex {v}");
                assert!(exact.degree(v) > 0, "k={k}: exact lost clique vertex {v}");
            }
        }
    }

    #[test]
    fn peel_keeps_planted_clique_and_drops_background() {
        let g = fixtures::fig1_graph();
        // k = 3: the planted 8-clique (6 a-vertices / 2 b... see fixtures) survives.
        let peel = fair_core_peel(&g, 3).unwrap();
        for v in [6u32, 7, 9, 10, 11, 12, 13, 14] {
            assert!(peel.alive[v as usize], "lost clique vertex {v}");
        }
        // Something was peeled, so the cascade ran at least one wave, and each
        // wave performs at least one targeted read.
        assert!(peel.stats.rounds >= 1);
        assert!(peel.stats.cascade_reads >= peel.stats.rounds);
        // A huge k kills everything in the seed scan: exactly one wave.
        let peel = fair_core_peel(&g, 100).unwrap();
        assert_eq!(peel.stats.surviving_vertices, 0);
        assert!(peel.survivors().is_empty());
        assert_eq!(peel.stats.rounds, 1);
        // When nothing dies, no wave runs at all.
        let clique = fixtures::balanced_clique(6);
        let peel = fair_core_peel(&clique, 1).unwrap();
        assert_eq!(peel.stats.surviving_vertices, clique.num_vertices());
        assert_eq!(peel.stats.rounds, 0);
    }

    #[test]
    fn extract_residual_matches_induced_subgraph() {
        let g = fixtures::fig1_graph();
        let peel = fair_core_peel(&g, 3).unwrap();
        let residual = extract_residual(&g, &peel.alive).unwrap();
        assert_eq!(residual.graph.num_vertices(), residual.vertex_map.len());
        // Every residual edge maps back to an edge of g between alive endpoints,
        // and every alive-alive edge of g appears in the residual.
        let alive_edges = g
            .edge_list()
            .iter()
            .filter(|&&(u, v)| peel.alive[u as usize] && peel.alive[v as usize])
            .count();
        assert_eq!(residual.graph.num_edges(), alive_edges);
        for &(u, v) in residual.graph.edge_list() {
            let (su, sv) = (
                residual.vertex_map[u as usize],
                residual.vertex_map[v as usize],
            );
            assert!(g.has_edge(su, sv));
            assert_eq!(residual.graph.attribute(u), g.attribute(su));
            assert_eq!(residual.graph.attribute(v), g.attribute(sv));
        }
    }

    #[test]
    fn reduce_store_runs_exact_pipeline_on_residual() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let out = reduce_store(&g, params, &ReductionConfig::default()).unwrap();
        assert_eq!(out.stats.exact.stages.len(), 3);
        assert!(out.stats.peel.surviving_vertices <= g.num_vertices());
        assert_eq!(out.graph.num_vertices(), out.vertex_map.len());
        // The planted 8-clique survives end to end, in residual coordinates.
        let store_to_new: std::collections::HashMap<_, _> = out
            .vertex_map
            .iter()
            .enumerate()
            .map(|(new, &store)| (store, new as VertexId))
            .collect();
        let clique = [6u32, 7, 9, 10, 11, 12, 13, 14];
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                let (nu, nv) = (store_to_new[&u], store_to_new[&v]);
                assert!(out.graph.has_edge(nu, nv), "lost clique edge ({u}, {v})");
            }
        }
    }
}
