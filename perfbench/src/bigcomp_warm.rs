//! `bigcomp-warm`: repeated queries on one warm solver over a single big
//! connected component.
//!
//! Set-up builds `big_component_graph(800, g)` for a few fixed seeds `g`,
//! relabels each graph's vertices by a seed derived from the workload seed,
//! builds an `RfcSolver` on each, and runs one query on each. Every query of
//! the mix shares that query's `(k, reductions)` key, so each timed query
//! finds its reduced graph cached: the bounds and the branch-and-bound do the
//! work, reduction none. One op is one solve from a fixed 15-query mix; a
//! pass runs the mix on every graph. Search cost varies a lot from one
//! generated graph to the next, so a run averages over several, and
//! relabeling keeps them alike across workload seeds.

use std::time::Instant;

use rfc_bench::workloads::big_component_graph;
use rfc_core::prelude::*;
use rfc_obs::trace::span;

use crate::common::{self, Ctx, Outcome, SolveTally, Tally, MIN_OPS};

/// Vertices of each generated component.
const N: usize = 800;
/// Graphs per run.
const GRAPHS: usize = 4;
/// The `k` of every query.
const K: usize = 3;

/// The query mix: relative (k=3, δ=0..3) under the basic, default and
/// colorful-path configurations, then weak, strong and top-5 under the default.
fn queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for config in [
        SearchConfig::basic(),
        SearchConfig::default(),
        SearchConfig::full(ExtraBound::ColorfulPath),
    ] {
        for delta in 0..=3 {
            queries.push(
                Query::new(FairnessModel::Relative { k: K, delta }).with_config(config.clone()),
            );
        }
    }
    queries.push(Query::new(FairnessModel::Weak { k: K }));
    queries.push(Query::new(FairnessModel::Strong { k: K }));
    queries.push(
        Query::new(FairnessModel::Relative { k: K, delta: 1 }).with_objective(Objective::TopK(5)),
    );
    queries
}

fn setup(ctx: &Ctx, queries: &[Query]) -> Vec<RfcSolver> {
    (0..GRAPHS)
        .map(|g| {
            let graph = big_component_graph(N, g as u64);
            let ids = common::relabeling(N, ctx.derive(g as u64));
            let solver = RfcSolver::new(common::relabeled(&graph, &ids));
            solver
                .solve(&queries[0])
                .expect("warm-up query is well-formed");
            solver
        })
        .collect()
}

struct Mix<'a> {
    solvers: &'a [RfcSolver],
    queries: &'a [Query],
    /// Reference sizes by graph, then query.
    expected: &'a [Vec<Vec<usize>>],
    solves: SolveTally,
    tally: Tally,
}

impl Mix<'_> {
    fn op(&mut self, i: usize) -> f64 {
        let at = i % self.queries.len();
        let g = (i / self.queries.len()) % self.solvers.len();
        let (solver, query) = (&self.solvers[g], &self.queries[at]);
        let start = Instant::now();
        let result = {
            let _span = span("bench/solver.solve");
            solver.solve(query)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Ok(solution) = &result {
            self.solves.record(solution);
        }
        self.tally.record(common::check_solution(
            solver.graph(),
            query.fairness,
            &result,
            &self.expected[g][at],
        ));
        ms
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let queries = queries();
    let (solvers, setup_s) = common::timed_setup(|| setup(ctx, &queries));
    let expected: Vec<Vec<Vec<usize>>> = solvers
        .iter()
        .map(|solver| {
            let reference = RfcSolver::new(solver.graph().clone());
            queries
                .iter()
                .map(|q| common::reference_sizes(&reference, q.fairness, q.objective))
                .collect()
        })
        .collect();
    let pass = GRAPHS * queries.len();
    out.info
        .push(("ops_per_pass".to_string(), pass.to_string()));
    let mix = || Mix {
        solvers: &solvers,
        queries: &queries,
        expected: &expected,
        solves: SolveTally::default(),
        tally: Tally::default(),
    };

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut untraced = mix();
    let passes = common::closed_loop(seconds, pass, MIN_OPS, |i| untraced.op(i));
    out.tally = untraced.tally;
    out.require(
        untraced.solves.cache_hit_ratio() == 1.0,
        "solver.cache_hit_ratio must be 1 on bigcomp-warm",
    );
    common::end_to_end(&mut out, setup_s, &passes);
    if !ctx.trace {
        return out;
    }

    let mut traced = mix();
    let log = common::traced_rerun(&mut out, &passes, |i| traced.op(i));
    out.tally.absorb(traced.tally);
    traced.solves.layer_metrics(&log, &mut out.values);
    out
}
