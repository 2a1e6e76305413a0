//! Shared machinery for the edge-peeling (truss-style) reductions.
//!
//! Both `ColorfulSup` and `EnColorfulSup` keep, for every edge `(u, v)`, the multiset
//! of `(color, attribute)` pairs of the common neighbors of `u` and `v`, and peel edges
//! whose color groups fall short of the edge's demand. [`EdgeSupportState`] owns that
//! per-edge state and [`peel_edges`] builds it and runs the peel; the two reductions
//! only differ in their violation predicate, a function of an edge's [`ColorGroups`].
//!
//! # Layout
//!
//! The state is one [`ColorCountSlab`]: a row of `(color, [count_a, count_b])`
//! entries per edge, sorted by color, in one flat allocation. Rows are stored in
//! *slot* order — edges grouped by their *hub*, the endpoint that is larger by
//! `(degree, id)` — so that a contiguous range of hubs owns a contiguous range of
//! rows and slab entries, and the build can hand disjoint ranges to different
//! workers. An edge that already violates the predicate when the supports are first
//! counted gets an empty row: it is condemned before anything could read it.
//!
//! # Kernel
//!
//! Every triangle listing, in the build and in the peel, goes through one hub-aware
//! mark-and-scan kernel: mark the hub's neighborhood once, then scan the other
//! endpoint's (shorter) list and keep the marked vertices. All edges that share a
//! hub share its marks, so a hub's long list is walked once per hub instead of once
//! per incident edge, as a sorted-list merge would. In the build a mark is the
//! neighbor's `(color, attribute)` key, so the scan reads no color or attribute and
//! runs without branches, and the hub's sorted color list both bounds and orders
//! each row: no row is sorted.
//!
//! # Complexity
//!
//! Let `lo(e)` be the degree of edge `e`'s non-hub endpoint (never more than the
//! hub's) and `c(h)` the number of colors around hub `h` (at most `deg(h)` and the
//! color count). The build makes two passes (count, then fill the exactly sized
//! slab), each `O(Σ_e (lo(e) + c(h_e)) + Σ_h deg(h))`; `Σ_e lo(e) =
//! Σ_e min(deg u, deg v)` is the classic `O(m·α(G))` triangle-listing bound. Both
//! passes run as steal-pool tasks over ranges of hubs when more than one worker is
//! allowed and the graph is big enough to pay for the threads. The peel processes
//! condemned edges round by round, each round grouped by hub: an edge costs `lo(e)`
//! plus a binary search per torn-down triangle, and each hub group costs `deg(h)`
//! for its marks.

use std::ops::Range;

use rfc_graph::colorful::{ColorCountSlab, ColorGroups};
use rfc_graph::coloring::Coloring;
use rfc_graph::{Attribute, AttributedGraph, EdgeId, VertexId};

use crate::search::steal::run_pool;

/// Marker for a vertex outside the marked hub neighborhood.
const UNMARKED: u32 = u32::MAX;

/// Estimated common-neighbor visits below which a build pass runs on the calling
/// thread: spawning workers costs more than such a pass.
const MIN_PARALLEL_WORK: u64 = 1 << 16;

/// Build tasks per worker, so that a worker whose ranges turn out cheap can steal.
const CHUNKS_PER_WORKER: usize = 4;

/// Per-edge color/attribute counts over common neighbors, with the derived
/// exclusive/mixed color groups.
#[derive(Debug, Clone)]
pub struct EdgeSupportState {
    /// One row per edge, in slot order.
    rows: ColorCountSlab,
    /// Color groups per slot, kept in sync with `rows`.
    groups: Vec<ColorGroups>,
    /// The slot of every edge id.
    slot_of: Vec<u32>,
}

/// Whether `a` ranks below `b` by `(degree, id)`: the hub of an edge is its
/// higher-ranked endpoint.
#[inline]
fn ranks_below(g: &AttributedGraph, a: VertexId, b: VertexId) -> bool {
    (g.degree(a), a) < (g.degree(b), b)
}

/// The hub of edge `e` and its other endpoint, as `(hub, low)`.
#[inline]
fn hub_and_low(g: &AttributedGraph, e: EdgeId) -> (VertexId, VertexId) {
    let (u, v) = g.edge_endpoints(e);
    if ranks_below(g, u, v) {
        (v, u)
    } else {
        (u, v)
    }
}

/// Marks `h`'s neighborhood: `mark[w]` becomes `w`'s position in `h`'s list.
fn mark_neighbors(g: &AttributedGraph, h: VertexId, mark: &mut [u32]) {
    for (i, &w) in g.neighbors(h).iter().enumerate() {
        mark[w as usize] = i as u32;
    }
}

/// Clears the marks [`mark_neighbors`] set for `h`.
fn unmark_neighbors(g: &AttributedGraph, h: VertexId, mark: &mut [u32]) {
    for &w in g.neighbors(h) {
        mark[w as usize] = UNMARKED;
    }
}

/// Per-worker scratch of the build passes: the mark-and-scan kernel that tallies the
/// common-neighbor colors of the edges of one hub at a time.
struct HubTally {
    /// `key[w] = 2·color(w) + attr(w)` while `w` is in the marked hub's neighborhood,
    /// `absent` otherwise.
    key: Vec<u32>,
    /// The key of an unmarked vertex: one past the largest real key.
    absent: u32,
    /// Common neighbors of the current edge per key.
    counts: Vec<u32>,
    /// The marked hub's neighbor colors, sorted: a superset of the common-neighbor
    /// colors of each of its edges.
    hub_colors: Vec<u32>,
    /// Membership of `hub_colors` while it is collected.
    seen: Vec<bool>,
    /// Keys of the current edge's common neighbors.
    common: Vec<u32>,
}

impl HubTally {
    fn new(g: &AttributedGraph, coloring: &Coloring) -> Self {
        let absent = 2 * coloring.num_colors as u32;
        Self {
            key: vec![absent; g.num_vertices()],
            absent,
            counts: vec![0; absent as usize],
            hub_colors: Vec::new(),
            seen: vec![false; coloring.num_colors],
            common: vec![0; g.max_degree()],
        }
    }

    /// Marks hub `h`'s neighborhood and collects its colors.
    fn mark(&mut self, g: &AttributedGraph, coloring: &Coloring, h: VertexId) {
        for &w in g.neighbors(h) {
            let color = coloring.color(w);
            self.key[w as usize] = 2 * color + g.attribute(w).index() as u32;
            if !std::mem::replace(&mut self.seen[color as usize], true) {
                self.hub_colors.push(color);
            }
        }
        self.hub_colors.sort_unstable();
        for &color in &self.hub_colors {
            self.seen[color as usize] = false;
        }
    }

    /// Clears what [`mark`](Self::mark) set for `h`.
    fn unmark(&mut self, g: &AttributedGraph, h: VertexId) {
        for &w in g.neighbors(h) {
            self.key[w as usize] = self.absent;
        }
        self.hub_colors.clear();
    }

    /// Tallies the common neighbors of `low` and the marked hub. The scan over
    /// `low`'s list is branch-free: every key is written and only the marked ones
    /// advance the cursor.
    #[inline]
    fn tally(&mut self, g: &AttributedGraph, low: VertexId) {
        let mut len = 0;
        for &w in g.neighbors(low) {
            let key = self.key[w as usize];
            self.common[len] = key;
            len += usize::from(key != self.absent);
        }
        for &key in &self.common[..len] {
            self.counts[key as usize] += 1;
        }
    }

    /// Calls `f(color, [count_a, count_b])` for every tallied color, in color order,
    /// and clears the tally.
    #[inline]
    fn drain(&mut self, mut f: impl FnMut(u32, [u32; 2])) {
        for &color in &self.hub_colors {
            let i = 2 * color as usize;
            let counts = [self.counts[i], self.counts[i + 1]];
            if counts != [0, 0] {
                f(color, counts);
                self.counts[i] = 0;
                self.counts[i + 1] = 0;
            }
        }
    }
}

/// The slot layout: edges grouped by hub, with the hub ranges handed to the build
/// workers.
struct Slots {
    /// The slots of hub `h` are `hub_start[h]..hub_start[h + 1]`, in `h`'s adjacency
    /// order.
    hub_start: Vec<usize>,
    /// The slot of every edge id.
    slot_of: Vec<u32>,
    /// Consecutive hub ranges covering every vertex, one build task each.
    chunks: Vec<Range<VertexId>>,
}

impl Slots {
    fn new(g: &AttributedGraph, workers: usize) -> Self {
        let n = g.num_vertices();
        let mut hub_start = Vec::with_capacity(n + 1);
        hub_start.push(0);
        let mut slot_of = vec![0u32; g.num_edges()];
        // Estimated common-neighbor visits per hub: its marks plus its low lists.
        let mut cost = Vec::with_capacity(n);
        let mut slot = 0usize;
        for h in g.vertices() {
            let mut visits = 0u64;
            for (low, e) in g.neighbors_with_edges(h) {
                if ranks_below(g, low, h) {
                    slot_of[e as usize] = slot as u32;
                    slot += 1;
                    visits += g.degree(low) as u64;
                }
            }
            if slot > hub_start[h as usize] {
                visits += 2 * g.degree(h) as u64;
            }
            hub_start.push(slot);
            cost.push(visits);
        }
        let total: u64 = cost.iter().sum();
        let workers = workers.min((total / MIN_PARALLEL_WORK) as usize).max(1);
        let chunk_count = if workers > 1 {
            workers * CHUNKS_PER_WORKER
        } else {
            1
        };
        let target = total.div_ceil(chunk_count as u64);
        let mut chunks = Vec::with_capacity(chunk_count);
        let (mut begin, mut acc) = (0 as VertexId, 0u64);
        for (h, &c) in cost.iter().enumerate() {
            acc += c;
            if acc >= target && chunks.len() + 1 < chunk_count {
                chunks.push(begin..h as VertexId + 1);
                begin = h as VertexId + 1;
                acc = 0;
            }
        }
        chunks.push(begin..n as VertexId);
        Self {
            hub_start,
            slot_of,
            chunks,
        }
    }

    /// The slots of the hubs in `hubs`.
    fn slots(&self, hubs: &Range<VertexId>) -> Range<usize> {
        self.hub_start[hubs.start as usize]..self.hub_start[hubs.end as usize]
    }
}

/// Runs `task` once per chunk: on the calling thread when there is one chunk,
/// otherwise as steal-pool tasks with one scratch per worker.
fn run_chunks<T: Send>(
    scratch: &mut Vec<HubTally>,
    chunks: Vec<T>,
    task: impl Fn(&mut HubTally, T) + Sync,
) {
    if chunks.len() == 1 {
        for chunk in chunks {
            task(&mut scratch[0], chunk);
        }
        return;
    }
    let states = std::mem::take(scratch);
    *scratch = run_pool(states.len(), chunks, states, |state, _, chunk| {
        task(state, chunk)
    });
}

/// Splits `items` into consecutive mutable pieces of the given lengths.
fn split_by<T>(mut items: &mut [T], lengths: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lengths
        .map(|len| {
            let (piece, rest) = std::mem::take(&mut items).split_at_mut(len);
            items = rest;
            piece
        })
        .collect()
}

impl EdgeSupportState {
    /// Counts the common-neighbor colors of every edge and returns the state together
    /// with the edges that already violate `violates` (in edge-id order). Those
    /// edges get empty rows; their state must not be read or updated.
    ///
    /// `workers` caps the build's threads; the result does not depend on it.
    pub fn build<F>(
        g: &AttributedGraph,
        coloring: &Coloring,
        workers: usize,
        violates: &F,
    ) -> (Self, Vec<EdgeId>)
    where
        F: Fn(EdgeId, ColorGroups) -> bool + Sync,
    {
        let m = g.num_edges();
        let slots = Slots::new(g, workers);
        let workers = workers.min(slots.chunks.len());
        let mut scratch: Vec<HubTally> = (0..workers).map(|_| HubTally::new(g, coloring)).collect();

        // Pass 1: the color groups and the distinct-color count of every slot.
        let mut groups = vec![ColorGroups::default(); m];
        let mut lengths = vec![0usize; m];
        let tasks: Vec<_> = slots
            .chunks
            .iter()
            .cloned()
            .zip(split_by(
                &mut groups,
                slots.chunks.iter().map(|c| slots.slots(c).len()),
            ))
            .zip(split_by(
                &mut lengths,
                slots.chunks.iter().map(|c| slots.slots(c).len()),
            ))
            .collect();
        run_chunks(&mut scratch, tasks, |tally, ((hubs, groups), lengths)| {
            let mut i = 0;
            for h in hubs {
                if slots.hub_start[h as usize] == slots.hub_start[h as usize + 1] {
                    continue;
                }
                tally.mark(g, coloring, h);
                for &low in g.neighbors(h).iter().filter(|&&low| ranks_below(g, low, h)) {
                    tally.tally(g, low);
                    let (mut row_groups, mut distinct) = (ColorGroups::default(), 0);
                    tally.drain(|_, counts| {
                        row_groups.insert(counts);
                        distinct += 1;
                    });
                    groups[i] = row_groups;
                    lengths[i] = distinct;
                    i += 1;
                }
                tally.unmark(g, h);
            }
        });

        // Condemn the edges that fail already; their rows stay empty.
        let mut condemned = Vec::new();
        for e in 0..m as EdgeId {
            let slot = slots.slot_of[e as usize] as usize;
            if violates(e, groups[slot]) {
                condemned.push(e);
                lengths[slot] = 0;
            }
        }
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0);
        for len in &lengths {
            offsets.push(offsets[offsets.len() - 1] + len);
        }
        drop(lengths);

        // Pass 2: fill the exactly sized slab, each row sorted by color.
        let total = offsets[m];
        let mut colors = vec![0u32; total];
        let mut counts = vec![[0u32; 2]; total];
        let entry_len = |c: &Range<VertexId>| {
            let r = slots.slots(c);
            offsets[r.end] - offsets[r.start]
        };
        let tasks: Vec<_> = slots
            .chunks
            .iter()
            .cloned()
            .zip(split_by(&mut colors, slots.chunks.iter().map(entry_len)))
            .zip(split_by(&mut counts, slots.chunks.iter().map(entry_len)))
            .collect();
        run_chunks(&mut scratch, tasks, |tally, ((hubs, colors), counts)| {
            let base = offsets[slots.hub_start[hubs.start as usize]];
            for h in hubs {
                let hub_slots = slots.hub_start[h as usize]..slots.hub_start[h as usize + 1];
                if offsets[hub_slots.start] == offsets[hub_slots.end] {
                    continue;
                }
                tally.mark(g, coloring, h);
                let lows = g.neighbors(h).iter().filter(|&&low| ranks_below(g, low, h));
                for (slot, &low) in hub_slots.zip(lows) {
                    let mut at = offsets[slot] - base;
                    if at == offsets[slot + 1] - base {
                        continue;
                    }
                    tally.tally(g, low);
                    tally.drain(|color, pair| {
                        colors[at] = color;
                        counts[at] = pair;
                        at += 1;
                    });
                }
                tally.unmark(g, h);
            }
        });

        let state = Self {
            rows: ColorCountSlab::from_parts(offsets, colors, counts),
            groups,
            slot_of: slots.slot_of,
        };
        (state, condemned)
    }

    /// The color groups (exclusive-a, exclusive-b, mixed) of edge `e`.
    #[inline]
    pub fn groups(&self, e: EdgeId) -> ColorGroups {
        self.groups[self.slot_of[e as usize] as usize]
    }

    /// The plain colorful supports `(sup_a, sup_b)` of edge `e` (Definition 6): the
    /// number of distinct colors among common neighbors with each attribute. Note that
    /// `sup_attr = exclusive_attr + mixed`.
    #[inline]
    pub fn colorful_support(&self, e: EdgeId) -> (usize, usize) {
        self.groups(e).colorful_support()
    }

    /// Records that a vertex with the given color and attribute is no longer a common
    /// neighbor of edge `e`'s endpoints, updating the color groups.
    pub fn remove_common_neighbor(&mut self, e: EdgeId, color: u32, attr: Attribute) {
        let slot = self.slot_of[e as usize] as usize;
        let after = self.rows.decrement(slot, color, attr);
        let mut before = after;
        before[attr.index()] += 1;
        self.groups[slot].reclassify(before, after);
    }
}

/// Per-attribute support an edge must offer for its endpoints to possibly lie in a
/// relative fair clique of size ≥ 2k (the three cases of Lemma 3 / Lemma 4).
///
/// Returns `(need_a, need_b)`.
pub fn support_requirements(attr_u: Attribute, attr_v: Attribute, k: usize) -> (usize, usize) {
    use Attribute::{A, B};
    match (attr_u, attr_v) {
        (A, A) => (k.saturating_sub(2), k),
        (B, B) => (k, k.saturating_sub(2)),
        _ => (k.saturating_sub(1), k.saturating_sub(1)),
    }
}

/// Generic truss-style edge peeling.
///
/// `violates(edge, groups)` must return `true` when the edge can no longer belong to
/// any fair clique, and must stay `true` as the edge loses common neighbors (both
/// reductions' predicates are monotone). Such edges are removed and the supports of
/// the edges of every triangle they participated in are decremented, possibly
/// cascading. Returns the aliveness mask over edge ids: the unique largest edge set
/// on which no edge violates the predicate, so neither `workers` nor the order in
/// which condemned edges are processed can change it.
///
/// Bookkeeping detail: an edge is *condemned* (queued) as soon as it violates the
/// predicate, but it only stops counting as a triangle member when it is actually
/// processed. This way every triangle is torn down exactly once — when its first edge is
/// processed — so the supports of the surviving edges stay exact. A condemned edge's
/// own supports are never read again, so no decrement touches it.
///
/// Condemned edges are processed in rounds (the edges condemned by the previous
/// round), each round grouped by hub so that one set of hub marks serves all of the
/// hub's condemned edges.
pub fn peel_edges<F>(
    g: &AttributedGraph,
    coloring: &Coloring,
    workers: usize,
    violates: F,
) -> Vec<bool>
where
    F: Fn(EdgeId, ColorGroups) -> bool + Sync,
{
    let m = g.num_edges();
    let (mut state, mut round) = EdgeSupportState::build(g, coloring, workers, &violates);
    let mut alive = vec![true; m];
    let mut queued = vec![false; m];
    for &e in &round {
        queued[e as usize] = true;
    }
    let mut mark = vec![UNMARKED; g.num_vertices()];
    let mut next = Vec::new();

    while !round.is_empty() {
        // Slots are grouped by hub, so sorting by slot groups the round by hub.
        round.sort_unstable_by_key(|&e| state.slot_of[e as usize]);
        let mut i = 0;
        while i < round.len() {
            let (hub, _) = hub_and_low(g, round[i]);
            let hub_edges = g.neighbor_edge_ids(hub);
            mark_neighbors(g, hub, &mut mark);
            while let Some(&e) = round.get(i).filter(|&&e| hub_and_low(g, e).0 == hub) {
                i += 1;
                alive[e as usize] = false;
                let (_, low) = hub_and_low(g, e);
                for (w, e_lw) in g.neighbors_with_edges(low) {
                    let at = mark[w as usize];
                    if at == UNMARKED {
                        continue;
                    }
                    let e_hw = hub_edges[at as usize];
                    if !alive[e_lw as usize] || !alive[e_hw as usize] {
                        continue;
                    }
                    // The triangle (low, hub, w) disappears: edge (low, w) loses common
                    // neighbor `hub` and edge (hub, w) loses common neighbor `low`.
                    for (edge, lost) in [(e_lw, hub), (e_hw, low)] {
                        if queued[edge as usize] {
                            continue;
                        }
                        state.remove_common_neighbor(edge, coloring.color(lost), g.attribute(lost));
                        if violates(edge, state.groups(edge)) {
                            queued[edge as usize] = true;
                            next.push(edge);
                        }
                    }
                }
            }
            unmark_neighbors(g, hub, &mut mark);
        }
        round.clear();
        std::mem::swap(&mut round, &mut next);
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::coloring::greedy_coloring;
    use rfc_graph::fixtures;

    #[test]
    fn support_requirements_match_lemma3() {
        use Attribute::{A, B};
        assert_eq!(support_requirements(A, A, 4), (2, 4));
        assert_eq!(support_requirements(B, B, 4), (4, 2));
        assert_eq!(support_requirements(A, B, 4), (3, 3));
        assert_eq!(support_requirements(B, A, 4), (3, 3));
        // Saturation for tiny k.
        assert_eq!(support_requirements(A, A, 1), (0, 1));
        assert_eq!(support_requirements(A, B, 1), (0, 0));
    }

    #[test]
    fn initial_supports_match_example2() {
        // Edge (v2, v5) of the Fig. 1 fixture: common neighbors {v1, v6, v9} with
        // attributes {a, a, b}; v1 and v6 are adjacent so they get distinct colors,
        // giving sup_a = 2, sup_b = 1.
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let (state, _) = EdgeSupportState::build(&g, &coloring, 1, &|_, _| false);
        let e = g.edge_id(1, 4).expect("edge (v2, v5) exists");
        assert_eq!(state.colorful_support(e), (2, 1));
    }

    #[test]
    fn supports_inside_clique() {
        // In the 8-clique (3 b's and 5 a's), an edge between two a-vertices has 3 a- and
        // 3 b-colored common neighbors inside the clique (colors are all distinct), plus
        // possibly more outside.
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let (state, _) = EdgeSupportState::build(&g, &coloring, 1, &|_, _| false);
        let e = g.edge_id(10, 11).unwrap(); // (v11, v12), both a
        let (sa, sb) = state.colorful_support(e);
        assert!(
            sa >= 3 && sb >= 3,
            "clique edge support too small: ({sa}, {sb})"
        );
    }

    #[test]
    fn remove_common_neighbor_reclassifies_colors() {
        let g = fixtures::fig2_graph(); // edge (0,1) with 7 common neighbors, one shared color class
        let coloring = greedy_coloring(&g);
        let (mut state, _) = EdgeSupportState::build(&g, &coloring, 1, &|_, _| false);
        let e = g.edge_id(0, 1).unwrap();
        // All seven w's are pairwise non-adjacent, so they share one color: the single
        // color is mixed (used by both a- and b-attributed neighbors).
        let before = state.groups(e);
        assert_eq!(before.mixed, 1);
        assert_eq!(before.exclusive, [0, 0]);
        // Remove all four a-attributed common neighbors: the color becomes exclusive-b.
        for w in 2..=5u32 {
            state.remove_common_neighbor(e, coloring.color(w), Attribute::A);
        }
        let after = state.groups(e);
        assert_eq!(after.mixed, 0);
        assert_eq!(after.exclusive, [0, 1]);
        assert_eq!(state.colorful_support(e), (0, 1));
    }

    #[test]
    fn peeling_with_always_false_keeps_everything() {
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let alive = peel_edges(&g, &coloring, 1, |_, _| false);
        assert!(alive.iter().all(|&a| a));
    }

    #[test]
    fn peeling_with_always_true_removes_everything() {
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let alive = peel_edges(&g, &coloring, 1, |_, _| true);
        assert!(alive.iter().all(|&a| !a));
    }
}
