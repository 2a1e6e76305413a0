//! Pieces every workload shares: the run context, the closed loop, set-up
//! timing, failure accounting, answer checks, the in-memory tracer and the
//! solver-layer metrics read from it.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rfc_core::prelude::*;
use rfc_core::verify::is_fair_clique_under;
use rfc_graph::GraphBuilder;
use rfc_obs::trace::{BufferSink, TraceGuard};

use crate::report::Values;
use crate::spans::SpanLog;
use crate::stats::{mean, percentile, ratio, tail_percentile};

/// Fewest timed ops per run, so that p90 has at least ten samples beyond it.
pub const MIN_OPS: usize = 100;
/// A closed loop stops after this many seconds even short of `MIN_OPS` or
/// `MIN_PASSES`.
const MAX_LOOP_SECONDS: f64 = 120.0;

/// What one benchmark process was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for generated files.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// A sub-seed for input `tag` (SplitMix64 of the seed and tag).
    pub fn derive(&self, tag: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Failure messages a run keeps.
const MAX_MESSAGES: usize = 5;

/// Ops attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused or answered wrongly.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one op with its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.fail(message);
        }
    }

    /// Adds another phase's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(MAX_MESSAGES);
    }

    /// Counts a failure of an op already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }
}

/// What a workload returns.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Op accounting over every phase of the run.
    pub tally: Tally,
    /// Metric values by name.
    pub values: Values,
    /// Structural self-checks that failed: the workload no longer tests what
    /// it was chosen for.
    pub broken: Vec<String>,
    /// Extra header lines (`key: value`).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Records a structural self-check.
    pub fn require(&mut self, holds: bool, what: &str) {
        if !holds {
            self.broken.push(what.to_string());
        }
    }
}

/// Set-up runs at least this many times, and until [`SETUP_SECONDS`] have
/// passed (at most [`MAX_SETUP_REPS`] times); `setup_s` is the fastest.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 15;
const SETUP_SECONDS: f64 = 2.0;

/// Runs `setup` repeatedly and returns the last result with its fastest wall
/// time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::with_capacity(MAX_SETUP_REPS);
    let mut last = None;
    while times.len() < MIN_SETUP_REPS
        || (times.len() < MAX_SETUP_REPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("set-up runs at least once"),
        crate::stats::fastest(&times),
    )
}

/// A permutation of the vertex ids `0..n`, drawn from `seed`.
pub fn relabeling(n: usize, seed: u64) -> Vec<VertexId> {
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ids.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    ids
}

/// `graph` with vertex `v` renamed `ids[v]`: the same graph up to
/// isomorphism. A workload that relabels one generated graph per workload
/// seed poses every seed a query of the same difficulty, so that the spread
/// across seeds is the host's, not the generator's.
pub fn relabeled(graph: &AttributedGraph, ids: &[VertexId]) -> AttributedGraph {
    let mut attributes = graph.attributes().to_vec();
    for v in graph.vertices() {
        attributes[ids[v as usize] as usize] = graph.attribute(v);
    }
    let mut builder = GraphBuilder::with_attributes(attributes);
    builder.add_edges(
        graph
            .edge_list()
            .iter()
            .map(|&(u, v)| (ids[u as usize], ids[v as usize])),
    );
    builder.build().expect("a relabeled graph is valid")
}

/// Fewest passes of a closed loop: each op's latency is the fastest of them.
pub const MIN_PASSES: usize = 6;

/// The op latencies of a closed loop, pass by pass. Every pass runs the same
/// ops in the same order, so op `i` of one pass repeats op `i` of the others.
#[derive(Debug, Default)]
pub struct Passes {
    /// Latency (ms) of each op, by pass.
    pub latencies: Vec<Vec<f64>>,
}

impl Passes {
    /// Every latency, in the order the ops ran.
    pub fn all(&self) -> Vec<f64> {
        self.latencies.concat()
    }

    /// One pass as the program runs it when the shared host does not stall
    /// it: each op's fastest latency across the passes.
    pub fn unstalled(&self) -> Vec<f64> {
        let len = self.latencies.iter().map(Vec::len).min().unwrap_or(0);
        (0..len)
            .map(|i| {
                let repeats: Vec<f64> = self.latencies.iter().map(|pass| pass[i]).collect();
                crate::stats::fastest(&repeats)
            })
            .collect()
    }

    /// Ops per second of the unstalled pass.
    pub fn throughput(&self) -> f64 {
        let pass = self.unstalled();
        ratio(pass.len() as f64, pass.iter().sum::<f64>() / 1e3)
    }
}

/// Runs whole passes of `pass_len` ops until `seconds` have passed, at least
/// [`MIN_PASSES`] passes and at least `min_ops` ops ran. `op(i)` runs op `i`
/// and returns its latency in milliseconds.
pub fn closed_loop(
    seconds: f64,
    pass_len: usize,
    min_ops: usize,
    mut op: impl FnMut(usize) -> f64,
) -> Passes {
    let start = Instant::now();
    let mut passes = Passes::default();
    let mut ops = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && passes.latencies.len() >= MIN_PASSES && ops >= min_ops;
        if enough || (elapsed >= MAX_LOOP_SECONDS && !passes.latencies.is_empty()) {
            return passes;
        }
        let pass = (ops..ops + pass_len).map(&mut op).collect();
        passes.latencies.push(pass);
        ops += pass_len;
    }
}

/// Runs one pass of an untraced closed loop again, traced: stores
/// `trace.overhead_frac` and returns the validated span log.
pub fn traced_rerun(
    out: &mut Outcome,
    untraced: &Passes,
    mut op: impl FnMut(usize) -> f64,
) -> SpanLog {
    let untraced = untraced.unstalled();
    let mut tracer = Tracer::install();
    let traced: Vec<f64> = (0..untraced.len())
        .map(|i| {
            let ms = op(i);
            tracer.drain();
            ms
        })
        .collect();
    let log = tracer.finish(out);
    trace_overhead(&mut out.values, &untraced, &traced);
    log
}

/// Stores `setup_s`, the latency percentiles of the unstalled pass, its
/// throughput, and peak RSS. The tail rule counts every sample behind the
/// unstalled pass: each of its ops is the fastest of all passes.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, passes: &Passes) {
    let pass = passes.unstalled();
    let latency = [percentile(&pass, 50.0), percentile(&pass, 90.0)];
    let samples = passes.all().len();
    let windows = passes.latencies.len();
    end_to_end_values(out, setup_s, latency, passes.throughput(), samples, windows);
}

/// Stores the end-to-end metrics: `setup_s`, `latency` (p50, p90) from
/// the fastest of `samples` latencies measured in `windows` windows,
/// `throughput`, and peak RSS.
pub fn end_to_end_values(
    out: &mut Outcome,
    setup_s: f64,
    latency: [f64; 2],
    throughput: f64,
    samples: usize,
    windows: usize,
) {
    out.require(
        tail_percentile(samples).is_some_and(|p| p >= 90.0),
        &format!("latency_ms.p90 needs >= {MIN_OPS} samples, got {samples}"),
    );
    out.require(
        windows >= MIN_PASSES,
        &format!("latencies need >= {MIN_PASSES} passes, got {windows}"),
    );
    out.values.insert("setup_s", setup_s);
    out.values.insert("latency_ms.p50", latency[0]);
    out.values.insert("latency_ms.p90", latency[1]);
    out.values.insert("throughput_ops", throughput);
    out.values.insert("peak_rss_mb", peak_rss_mb());
    out.info.push(("samples".to_string(), samples.to_string()));
    out.info.push(("passes".to_string(), windows.to_string()));
    out.info.push((
        "tail_percentile".to_string(),
        format!("p{}", tail_percentile(samples).unwrap_or(0.0)),
    ));
}

/// The process's peak resident set (`VmHWM`), in MB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The in-memory tracer of a traced phase: installed on creation, drained
/// into a [`SpanLog`] between ops, uninstalled on drop.
pub struct Tracer {
    lines: Arc<Mutex<Vec<String>>>,
    log: SpanLog,
    _guard: TraceGuard,
}

impl Tracer {
    /// Installs a buffer sink and enables tracing.
    pub fn install() -> Self {
        let (sink, lines) = BufferSink::new();
        let guard = rfc_obs::trace::install(Box::new(sink));
        Self {
            lines,
            log: SpanLog::new(),
            _guard: guard,
        }
    }

    /// Moves the buffered event lines into the span log.
    pub fn drain(&mut self) {
        let lines = std::mem::take(&mut *self.lines.lock().expect("trace buffer poisoned"));
        for line in &lines {
            self.log.feed(line);
        }
    }

    /// Drains, uninstalls, and validates the span log.
    pub fn finish(mut self, out: &mut Outcome) -> SpanLog {
        self.drain();
        let log = std::mem::take(&mut self.log);
        drop(self);
        match log.finish() {
            Ok(events) => out
                .info
                .push(("span_events".to_string(), events.to_string())),
            Err(e) => out.broken.push(format!("span log invalid: {e}")),
        }
        log
    }
}

/// Checks a solve against the reference clique sizes: it must be complete,
/// return cliques of exactly those sizes, and each must be a fair clique of
/// `graph` under `model`.
pub fn check_solution(
    graph: &AttributedGraph,
    model: FairnessModel,
    result: &Result<Solution, SolveError>,
    expected: &[usize],
) -> Result<(), String> {
    let solution = result.as_ref().map_err(|e| format!("solve failed: {e}"))?;
    if !solution.termination.is_complete() {
        return Err(format!("{model}: incomplete ({:?})", solution.termination));
    }
    let sizes: Vec<usize> = solution.cliques.iter().map(FairClique::size).collect();
    if sizes != expected {
        return Err(format!("{model}: sizes {sizes:?}, reference {expected:?}"));
    }
    match solution
        .cliques
        .iter()
        .find(|c| !is_fair_clique_under(graph, &c.vertices, model))
    {
        Some(c) => Err(format!("{model}: {:?} is not a fair clique", c.vertices)),
        None => Ok(()),
    }
}

/// Reference clique sizes from a different configuration: a serial
/// `SearchConfig::basic()` search.
pub fn reference_sizes(
    solver: &RfcSolver,
    model: FairnessModel,
    objective: Objective,
) -> Vec<usize> {
    let query = Query::new(model)
        .with_objective(objective)
        .with_config(SearchConfig::basic().with_threads(ThreadCount::Serial));
    let solution = solver
        .solve(&query)
        .expect("reference query is well-formed");
    assert!(solution.termination.is_complete(), "reference is exact");
    solution.cliques.iter().map(FairClique::size).collect()
}

/// Counts from the `Solution`s of `RfcSolver` queries.
#[derive(Debug, Default)]
pub struct SolveTally {
    solves: u64,
    cache_hits: u64,
    branches: u64,
    bound_prunes: u64,
    feasibility_prunes: u64,
    heuristic_ratios: Vec<f64>,
    /// Per reduction stage: (edges in, edges removed).
    stage_edges: [(u64, u64); 3],
}

/// Reduction stages in pipeline order: name in `ReductionStats`, span name,
/// and the metric names of their time and edge yield.
const STAGES: [(&str, &str, &str, &str); 3] = [
    (
        "EnColorfulCore",
        "reduce/EnColorfulCore",
        "reduction.en_colorful_core_ms",
        "reduction.edge_yield.en_colorful_core",
    ),
    (
        "ColorfulSup",
        "reduce/ColorfulSup",
        "reduction.colorful_sup_ms",
        "reduction.edge_yield.colorful_sup",
    ),
    (
        "EnColorfulSup",
        "reduce/EnColorfulSup",
        "reduction.en_colorful_sup_ms",
        "reduction.edge_yield.en_colorful_sup",
    ),
];

impl SolveTally {
    /// Records one solution's public stats.
    pub fn record(&mut self, solution: &Solution) {
        let stats = &solution.stats;
        self.solves += 1;
        self.cache_hits += u64::from(solution.reduction_cache_hit);
        self.branches += stats.branches;
        self.bound_prunes += stats.bound_prunes;
        self.feasibility_prunes += stats.feasibility_prunes;
        if let (Some(heuristic), Some(best)) = (stats.heuristic_size, solution.best()) {
            self.heuristic_ratios
                .push(heuristic as f64 / best.size() as f64);
        }
        let mut edges_in = stats.reduction.original_edges as u64;
        for stage in &stats.reduction.stages {
            if let Some(i) = STAGES.iter().position(|s| s.0 == stage.stage) {
                let out = stage.edges as u64;
                self.stage_edges[i].0 += edges_in;
                self.stage_edges[i].1 += edges_in.saturating_sub(out);
                edges_in = out;
            }
        }
    }

    /// Writes the graph-, reduction-, heuristic-, search- and solver-layer
    /// metrics from these counts and the span log.
    pub fn layer_metrics(&self, log: &SpanLog, values: &mut Values) {
        let solves = self.solves as f64;
        for (i, (_, span, time, yield_name)) in STAGES.iter().enumerate() {
            values.insert(time, log.stats(span).self_ms());
            let (edges_in, removed) = self.stage_edges[i];
            values.insert(yield_name, ratio(removed as f64, edges_in as f64));
        }
        let solve = log.stats("solve");
        values.insert(
            "reduction.share",
            ratio(log.stats("reduce").total_us as f64, solve.total_us as f64),
        );
        values.insert("heuristic.ms", log.stats("heuristic").self_ms());
        values.insert("heuristic.hit_ratio", mean(&self.heuristic_ratios));
        // The search span's only children are its own per-component spans.
        let search = log.stats("search");
        values.insert("search.ms", search.total_ms());
        values.insert("search.branches", ratio(self.branches as f64, solves));
        values.insert(
            "search.bound_prunes",
            ratio(self.bound_prunes as f64, solves),
        );
        values.insert(
            "search.feasibility_prunes",
            ratio(self.feasibility_prunes as f64, solves),
        );
        values.insert(
            "search.us_per_branch",
            ratio(search.total_us as f64, self.branches as f64),
        );
        values.insert(
            "solver.cache_hit_ratio",
            ratio(self.cache_hits as f64, solves),
        );
        values.insert("solver.overhead_ms", solve.self_ms());
    }

    /// Share of solves that found their reduction cached.
    pub fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits as f64, self.solves as f64)
    }
}

/// Stores `trace.overhead_frac`: the summed latency of the traced ops over
/// that of the same ops untraced, minus one.
pub fn trace_overhead(values: &mut Values, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (untraced.iter().sum::<f64>(), traced.iter().sum::<f64>());
    values.insert("trace.overhead_frac", ratio(t - u, u));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstalled_pass_takes_each_ops_fastest_repeat() {
        let passes = Passes {
            latencies: vec![
                vec![10.0, 1.0],
                vec![30.0, 1.0],
                vec![12.0, 3.0],
                vec![11.0, 9.0],
                vec![50.0, 2.0],
            ],
        };
        assert_eq!(passes.unstalled(), vec![10.0, 1.0]);
        // Two ops in 11 ms of the unstalled pass.
        assert!((passes.throughput() - 2.0 / 0.011).abs() < 1e-9);
        assert_eq!(passes.all().len(), 10);
    }

    #[test]
    fn closed_loop_runs_whole_passes_and_enough_of_them() {
        let passes = closed_loop(0.0, 3, 10, |i| i as f64);
        assert_eq!(passes.latencies.len(), MIN_PASSES);
        assert!(passes.latencies.iter().all(|pass| pass.len() == 3));
        assert_eq!(passes.latencies[1], vec![3.0, 4.0, 5.0]);
        let passes = closed_loop(0.0, 3, 40, |i| i as f64);
        assert_eq!(passes.latencies.len(), 14);
    }

    #[test]
    fn relabeling_keeps_the_graph_up_to_isomorphism() {
        let mut builder = GraphBuilder::with_attributes(vec![
            Attribute::A,
            Attribute::B,
            Attribute::A,
            Attribute::B,
        ]);
        builder.add_edges([(0, 1), (1, 2), (2, 3), (0, 2)]);
        let graph = builder.build().unwrap();
        let ids = relabeling(4, 7);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(ids, relabeling(4, 7), "the same seed, the same ids");
        let renamed = relabeled(&graph, &ids);
        assert_eq!(renamed.num_edges(), graph.num_edges());
        for v in graph.vertices() {
            let w = ids[v as usize];
            assert_eq!(renamed.attribute(w), graph.attribute(v));
            assert_eq!(renamed.degree(w), graph.degree(v));
        }
        for &(u, v) in graph.edge_list() {
            assert!(renamed.has_edge(ids[u as usize], ids[v as usize]));
        }
    }
}
